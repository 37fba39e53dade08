// On-disk columnar shard format ("DSH1") + the mmap-backed DataSource
// over a directory of shards.
//
// One file per shard:
//
//   offset 0   u32  magic 'D','S','H','1'
//   offset 4   u32  header_size (bytes of the ByteWriter header block)
//   offset 8   header block (ByteWriter encoding):
//                u8      format version (1)
//                u32     shard index
//                string  machine profile id
//                u64     rows
//                u64     cols
//                u64     n feature names, then that many strings
//                u32     CRC-32 of the payload
//                u64     payload size in bytes
//   ...        zero padding to the next 64-byte boundary
//   payload    cols columns of `rows` f64 each (column-major, stride =
//              rows), then `rows` i32 labels
//
// The payload starts 64-byte aligned and each column is rows*8 bytes, so
// every column and the label block stay naturally aligned — a mapped shard
// aliases directly into a BatchView (base = first payload byte, stride =
// rows) and a std::span<const int> with zero copies and zero fixups.  The
// CRC covers the payload; writes go through tmp-file + rename so a crashed
// build never leaves a half-written shard under its final name.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ml/data_source.hpp"
#include "ml/feature_matrix.hpp"
#include "util/mmap_file.hpp"

namespace drlhmd::ml {

/// Canonical shard file name inside a corpus directory: shard-0007.dsh
std::string shard_file_name(std::uint32_t index);

/// Write one shard file (atomic: tmp + rename).  `X` supplies the feature
/// block; labels.size() must equal X.rows() and feature_names.size() must
/// equal X.cols().
void write_shard(const std::string& path, std::uint32_t index,
                 const std::string& profile_id,
                 const std::vector<std::string>& feature_names,
                 const FeatureMatrix& X, std::span<const int> labels);

/// Header + integrity summary of one shard file (for `hmdctl corpus info`).
struct ShardInfo {
  std::string path;
  std::uint32_t index = 0;
  std::string profile_id;
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t file_bytes = 0;
  bool crc_ok = false;
};

/// Directory of mmap'd shards exposed as a streaming DataSource.  Shards
/// are ordered by their header shard index; every shard must agree on the
/// feature-name list.
class ShardedDataset final : public DataSource {
 public:
  /// Map every *.dsh file in `dir`.  When `verify_crc` is set (the
  /// default), each shard's payload CRC is checked at open and a mismatch
  /// throws — flipping one bit anywhere in a mapped column is detected
  /// before any trainer reads it.
  static ShardedDataset open(const std::string& dir, bool verify_crc = true);

  /// Lenient per-shard inspection (never throws on a bad shard: its
  /// crc_ok is simply false, and its index is the one its canonical file
  /// name gives).  Used by `hmdctl corpus info` and the resume survey.
  static std::vector<ShardInfo> inspect(const std::string& dir);

  std::size_t num_shards() const override { return shards_.size(); }
  std::size_t rows() const override { return rows_; }
  std::size_t num_features() const override { return feature_names_.size(); }
  const std::vector<std::string>& feature_names() const override {
    return feature_names_;
  }
  BatchView shard(std::size_t s) const override;
  std::span<const int> labels(std::size_t s) const override;

  const std::string& profile_id(std::size_t s) const {
    return shards_[s].info.profile_id;
  }
  const ShardInfo& info(std::size_t s) const { return shards_[s].info; }
  /// Total bytes of file data currently mapped (the out-of-core working
  /// set lives here, not on the heap).
  std::size_t mapped_bytes() const;

 private:
  struct MappedShard {
    util::MmapFile file;
    ShardInfo info;
    std::size_t payload_offset = 0;
  };

  std::vector<MappedShard> shards_;
  std::vector<std::string> feature_names_;
  std::size_t rows_ = 0;
};

}  // namespace drlhmd::ml
