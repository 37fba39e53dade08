// FIPS 180-4 SHA-256, implemented from scratch for the ML-model integrity
// vault (paper Section 2.7: periodic hashing of deployed models).
//
// Every block compression goes through one function, which uses the x86
// SHA extensions when CPUID reports them and the portable rounds otherwise.
// Both paths produce identical digests.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace drlhmd::integrity {

using Sha256Digest = std::array<std::uint8_t, 32>;

namespace detail {

/// Compresses `n` consecutive 64-byte blocks into `state` with the portable
/// FIPS 180-4 rounds: the fallback, and the oracle the tests compare against.
void compress_portable(std::array<std::uint32_t, 8>& state,
                       const std::uint8_t* blocks, std::size_t n);

/// The same with the x86 SHA extensions (SHA-NI).  Returns false, leaving
/// `state` untouched, when the CPU lacks `sha`, `ssse3` or `sse4.1`, and
/// always on non-x86-64 builds.
bool compress_hardware(std::array<std::uint32_t, 8>& state,
                       const std::uint8_t* blocks, std::size_t n);

}  // namespace detail

/// Incremental hasher.
class Sha256 {
 public:
  Sha256();

  void update(std::span<const std::uint8_t> data);
  void update(std::string_view text);

  /// Finalize and return the digest. The hasher must not be reused after.
  Sha256Digest finish();

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_bits_ = 0;
  bool finished_ = false;
};

/// One-shot convenience functions.
Sha256Digest sha256(std::span<const std::uint8_t> data);
Sha256Digest sha256(std::string_view text);

/// Lowercase hex rendering of a digest.
std::string to_hex(const Sha256Digest& digest);

}  // namespace drlhmd::integrity
