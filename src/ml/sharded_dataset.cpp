#include "ml/sharded_dataset.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "util/artifact.hpp"
#include "util/serialize.hpp"

namespace drlhmd::ml {
namespace {

// The mapped label block is aliased as std::span<const int>.
static_assert(sizeof(int) == 4, "DSH1 labels are 32-bit");
static_assert(sizeof(double) == 8, "DSH1 columns are 64-bit doubles");

constexpr std::uint32_t kMagic = 'D' | ('S' << 8) | ('H' << 16) | ('1' << 24);
constexpr std::uint8_t kVersion = 1;
constexpr std::size_t kPayloadAlign = 64;

std::size_t align_up(std::size_t n) {
  return (n + kPayloadAlign - 1) / kPayloadAlign * kPayloadAlign;
}

struct ParsedHeader {
  ShardInfo info;
  std::vector<std::string> feature_names;
  std::uint32_t payload_crc = 0;
  std::uint64_t payload_size = 0;
  std::size_t payload_offset = 0;
};

/// Parse magic + header of a mapped shard.  Throws on structural problems;
/// CRC verification is the caller's choice.
ParsedHeader parse_header(const util::MmapFile& file) {
  const std::span<const std::uint8_t> bytes = file.bytes();
  if (bytes.size() < 8)
    throw std::invalid_argument("shard '" + file.path() + "': too small");
  std::uint32_t magic = 0, header_size = 0;
  std::memcpy(&magic, bytes.data(), 4);
  std::memcpy(&header_size, bytes.data() + 4, 4);
  if (magic != kMagic)
    throw std::invalid_argument("shard '" + file.path() + "': bad magic");
  if (header_size > bytes.size() - 8)
    throw std::invalid_argument("shard '" + file.path() + "': truncated header");

  util::ByteReader r(bytes.subspan(8, header_size));
  ParsedHeader h;
  if (r.read_u8() != kVersion)
    throw std::invalid_argument("shard '" + file.path() + "': bad version");
  h.info.path = file.path();
  h.info.index = r.read_u32();
  h.info.profile_id = r.read_string();
  h.info.rows = static_cast<std::size_t>(r.read_u64());
  h.info.cols = static_cast<std::size_t>(r.read_u64());
  const std::uint64_t n_names = r.read_u64();
  if (n_names != h.info.cols)
    throw std::invalid_argument("shard '" + file.path() +
                                "': feature-name count != cols");
  h.feature_names.reserve(h.info.cols);
  for (std::uint64_t i = 0; i < n_names; ++i)
    h.feature_names.push_back(r.read_string());
  h.payload_crc = r.read_u32();
  h.payload_size = r.read_u64();
  h.payload_offset = align_up(8 + header_size);
  h.info.file_bytes = bytes.size();

  const std::uint64_t expect =
      h.info.cols * static_cast<std::uint64_t>(h.info.rows) * 8 +
      static_cast<std::uint64_t>(h.info.rows) * 4;
  if (h.payload_size != expect)
    throw std::invalid_argument("shard '" + file.path() +
                                "': payload size disagrees with shape");
  if (h.payload_offset + h.payload_size > bytes.size())
    throw std::invalid_argument("shard '" + file.path() + "': truncated payload");
  return h;
}

bool payload_crc_ok(const util::MmapFile& file, const ParsedHeader& h) {
  const std::span<const std::uint8_t> payload =
      file.bytes().subspan(h.payload_offset,
                           static_cast<std::size_t>(h.payload_size));
  return util::crc32(payload) == h.payload_crc;
}

std::vector<std::string> shard_paths(const std::string& dir) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(dir))
    throw std::invalid_argument("ShardedDataset: not a directory: " + dir);
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".dsh")
      paths.push_back(entry.path().string());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

/// Shard index carried by a canonical shard_file_name(), if `path` has one.
std::optional<std::uint32_t> index_from_name(const std::string& path) {
  const std::string name = std::filesystem::path(path).filename().string();
  constexpr std::string_view kPrefix = "shard-";
  if (!name.starts_with(kPrefix)) return std::nullopt;
  std::uint32_t index = 0;
  const char* digits = name.data() + kPrefix.size();
  if (std::from_chars(digits, name.data() + name.size(), index).ec !=
          std::errc() ||
      shard_file_name(index) != name)
    return std::nullopt;
  return index;
}

}  // namespace

std::string shard_file_name(std::uint32_t index) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "shard-%04u.dsh", index);
  return buf;
}

void write_shard(const std::string& path, std::uint32_t index,
                 const std::string& profile_id,
                 const std::vector<std::string>& feature_names,
                 const FeatureMatrix& X, std::span<const int> labels) {
  if (labels.size() != X.rows())
    throw std::invalid_argument("write_shard: labels/rows mismatch");
  if (feature_names.size() != X.cols())
    throw std::invalid_argument("write_shard: feature_names/cols mismatch");

  const std::size_t rows = X.rows();
  const std::size_t cols = X.cols();

  // Payload: columns back to back (stride = rows), then i32 labels.
  std::vector<std::uint8_t> payload(cols * rows * 8 + rows * 4);
  for (std::size_t c = 0; c < cols; ++c) {
    const ColumnView col = X.col(c);
    std::memcpy(payload.data() + c * rows * 8, col.data(), rows * 8);
  }
  std::memcpy(payload.data() + cols * rows * 8, labels.data(), rows * 4);

  util::ByteWriter header;
  header.write_u8(kVersion);
  header.write_u32(index);
  header.write_string(profile_id);
  header.write_u64(rows);
  header.write_u64(cols);
  header.write_u64(feature_names.size());
  for (const auto& name : feature_names) header.write_string(name);
  header.write_u32(util::crc32(payload));
  header.write_u64(payload.size());

  const std::vector<std::uint8_t>& head = header.bytes();
  const std::uint32_t header_size = static_cast<std::uint32_t>(head.size());
  const std::size_t payload_offset = align_up(8 + head.size());

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("write_shard: cannot open " + tmp);
    out.write(reinterpret_cast<const char*>(&kMagic), 4);
    out.write(reinterpret_cast<const char*>(&header_size), 4);
    out.write(reinterpret_cast<const char*>(head.data()),
              static_cast<std::streamsize>(head.size()));
    const std::vector<char> pad(payload_offset - 8 - head.size(), 0);
    out.write(pad.data(), static_cast<std::streamsize>(pad.size()));
    out.write(reinterpret_cast<const char*>(payload.data()),
              static_cast<std::streamsize>(payload.size()));
    if (!out) throw std::runtime_error("write_shard: write failed: " + tmp);
  }
  std::filesystem::rename(tmp, path);
}

ShardedDataset ShardedDataset::open(const std::string& dir, bool verify_crc) {
  ShardedDataset ds;
  const std::vector<std::string> paths = shard_paths(dir);
  if (paths.empty())
    throw std::invalid_argument("ShardedDataset: no *.dsh shards in " + dir);

  for (const std::string& path : paths) {
    MappedShard shard;
    shard.file = util::MmapFile(path);
    ParsedHeader h = parse_header(shard.file);
    shard.info = h.info;
    shard.info.crc_ok = !verify_crc || payload_crc_ok(shard.file, h);
    if (!shard.info.crc_ok)
      throw std::runtime_error("ShardedDataset: CRC mismatch in " + path);
    shard.payload_offset = h.payload_offset;
    if (ds.feature_names_.empty()) {
      ds.feature_names_ = std::move(h.feature_names);
    } else if (ds.feature_names_ != h.feature_names) {
      throw std::invalid_argument(
          "ShardedDataset: shard feature names disagree: " + path);
    }
    ds.rows_ += shard.info.rows;
    ds.shards_.push_back(std::move(shard));
  }
  std::sort(ds.shards_.begin(), ds.shards_.end(),
            [](const MappedShard& a, const MappedShard& b) {
              return a.info.index < b.info.index;
            });
  return ds;
}

std::vector<ShardInfo> ShardedDataset::inspect(const std::string& dir) {
  std::vector<ShardInfo> infos;
  for (const std::string& path : shard_paths(dir)) {
    ShardInfo info;
    info.path = path;
    try {
      util::MmapFile file(path);
      const ParsedHeader h = parse_header(file);
      info = h.info;
      info.crc_ok = payload_crc_ok(file, h);
    } catch (const std::exception&) {
      // Unreadable/garbled shard: report it under the index its file name
      // gives, don't throw.
      info.index = index_from_name(path).value_or(0);
      info.crc_ok = false;
    }
    infos.push_back(std::move(info));
  }
  std::sort(infos.begin(), infos.end(),
            [](const ShardInfo& a, const ShardInfo& b) {
              return a.index < b.index || (a.index == b.index && a.path < b.path);
            });
  return infos;
}

BatchView ShardedDataset::shard(std::size_t s) const {
  const MappedShard& m = shards_[s];
  const auto* base =
      reinterpret_cast<const double*>(m.file.data() + m.payload_offset);
  return {base, m.info.rows, m.info.cols, m.info.rows};
}

std::span<const int> ShardedDataset::labels(std::size_t s) const {
  const MappedShard& m = shards_[s];
  const auto* base = reinterpret_cast<const int*>(
      m.file.data() + m.payload_offset + m.info.cols * m.info.rows * 8);
  return {base, m.info.rows};
}

std::size_t ShardedDataset::mapped_bytes() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard.file.size();
  return total;
}

}  // namespace drlhmd::ml
