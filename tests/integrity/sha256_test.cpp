#include "integrity/sha256.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

namespace drlhmd::integrity {
namespace {

// FIPS 180-4 / NIST test vectors.
TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(to_hex(sha256("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(to_hex(sha256("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(to_hex(sha256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, LongerTwoBlockMessage) {
  EXPECT_EQ(
      to_hex(sha256("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
                    "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")),
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 hasher;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) hasher.update(chunk);
  EXPECT_EQ(to_hex(hasher.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, ExactBlockBoundary) {
  // 64 bytes: exactly one block before padding.
  const std::string block(64, 'x');
  // Reference computed with coreutils sha256sum.
  EXPECT_EQ(to_hex(sha256(block)),
            "7ce100971f64e7001e8fe5a51973ecdfe1ced42befe7ee8d5fd6219506b5393c");
}

TEST(Sha256Test, IncrementalEqualsOneShot) {
  const std::string message = "The quick brown fox jumps over the lazy dog";
  Sha256 hasher;
  for (char c : message)
    hasher.update(std::string_view(&c, 1));
  EXPECT_EQ(to_hex(hasher.finish()), to_hex(sha256(message)));
}

TEST(Sha256Test, SplitAtArbitraryBoundaries) {
  const std::string message(300, 'z');
  for (std::size_t split : {1u, 37u, 63u, 64u, 65u, 128u, 299u}) {
    Sha256 hasher;
    hasher.update(std::string_view(message).substr(0, split));
    hasher.update(std::string_view(message).substr(split));
    EXPECT_EQ(to_hex(hasher.finish()), to_hex(sha256(message))) << split;
  }
}

TEST(Sha256Test, BinaryInput) {
  std::vector<std::uint8_t> bytes = {0x00, 0xFF, 0x10, 0x80};
  const auto d1 = sha256(bytes);
  bytes[0] = 0x01;
  const auto d2 = sha256(bytes);
  EXPECT_NE(to_hex(d1), to_hex(d2));
}

TEST(Sha256Test, UseAfterFinishThrows) {
  Sha256 hasher;
  hasher.update("abc");
  hasher.finish();
  EXPECT_THROW(hasher.update("more"), std::logic_error);
  EXPECT_THROW(hasher.finish(), std::logic_error);
}

TEST(Sha256Test, HexIs64LowercaseChars) {
  const auto hex = to_hex(sha256("x"));
  EXPECT_EQ(hex.size(), 64u);
  for (char c : hex)
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'));
}

// Differential tests: the hardware block function and the Sha256 buffering
// and padding against the portable rounds.

std::vector<std::uint8_t> random_bytes(std::mt19937_64& rng, std::size_t n) {
  std::vector<std::uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
  return bytes;
}

/// Digest from the portable rounds alone, with padding built independently
/// of Sha256::finish().
Sha256Digest portable_digest(const std::vector<std::uint8_t>& message) {
  std::vector<std::uint8_t> padded = message;
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(message.size()) * 8;
  for (int shift = 56; shift >= 0; shift -= 8)
    padded.push_back(static_cast<std::uint8_t>(bits >> shift));
  std::array<std::uint32_t, 8> state = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                        0xa54ff53a, 0x510e527f, 0x9b05688c,
                                        0x1f83d9ab, 0x5be0cd19};
  detail::compress_portable(state, padded.data(), padded.size() / 64);
  Sha256Digest digest;
  for (std::size_t i = 0; i < 32; ++i)
    digest[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  return digest;
}

/// Asserts sha256() equals the portable oracle in one shot and when the
/// message is split at 1, 63, 64 and 65 bytes.
void expect_matches_oracle(const std::vector<std::uint8_t>& message) {
  const std::string expected = to_hex(portable_digest(message));
  ASSERT_EQ(to_hex(sha256(message)), expected) << message.size() << " bytes";
  const std::span<const std::uint8_t> all(message);
  for (std::size_t split : {1u, 63u, 64u, 65u}) {
    const std::size_t at = std::min(split, message.size());
    Sha256 hasher;
    hasher.update(all.first(at));
    hasher.update(all.subspan(at));
    ASSERT_EQ(to_hex(hasher.finish()), expected)
        << message.size() << " bytes split at " << at;
  }
}

TEST(Sha256PathsTest, HardwareBlocksMatchPortable) {
  std::array<std::uint32_t, 8> probe{};
  if (!detail::compress_hardware(probe, nullptr, 0))
    GTEST_SKIP() << "CPUID lacks the SHA extensions (sha, ssse3, sse4.1)";
  std::mt19937_64 rng(20240615);
  for (int trial = 0; trial < 200; ++trial) {
    std::array<std::uint32_t, 8> portable;
    for (auto& word : portable) word = static_cast<std::uint32_t>(rng());
    std::array<std::uint32_t, 8> hardware = portable;
    const std::size_t n = 1 + rng() % 40;
    const std::vector<std::uint8_t> blocks = random_bytes(rng, 64 * n);
    detail::compress_portable(portable, blocks.data(), n);
    ASSERT_TRUE(detail::compress_hardware(hardware, blocks.data(), n));
    ASSERT_EQ(hardware, portable) << "trial " << trial << ", " << n << " blocks";
  }
}

TEST(Sha256PathsTest, DigestsMatchPortableAtEveryLengthTo1100) {
  std::mt19937_64 rng(7);
  for (std::size_t n = 0; n <= 1100; ++n)
    ASSERT_NO_FATAL_FAILURE(expect_matches_oracle(random_bytes(rng, n)));
}

TEST(Sha256PathsTest, DigestsMatchPortableAtModelSizes) {
  // Serialized RF and LightGBM sizes of the benchmark's defended models.
  std::mt19937_64 rng(11);
  for (std::size_t n : {126295u, 149229u})
    ASSERT_NO_FATAL_FAILURE(expect_matches_oracle(random_bytes(rng, n)));
}

}  // namespace
}  // namespace drlhmd::integrity
