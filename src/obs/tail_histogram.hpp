// Exact tail-latency histograms (HDR-style log-linear bucketing): the obs
// layer's one latency recorder.  Two properties make its p99/p999 serving
// numbers trustworthy:
//
//   * Log-linear buckets: values are mapped to integer ticks and bucketed
//     with 7 bits of linear resolution per power-of-two range, so every
//     bucket is within 2^-7 ~ 0.8% of its value.
//     Quantiles walk the counts array, so p50..p9999 are exact up to one
//     bucket's width — no estimator drift, no sample retention.
//   * merge() is lossless: every histogram shares one fixed layout, so two
//     histograms add bucket-by-bucket and per-thread/per-shard recordings
//     aggregate into exactly the histogram a single serial recorder would
//     have produced.
//     Sums accumulate in integer ticks, so merged totals are independent
//     of merge order (bitwise-deterministic snapshots at any thread count).
//
// TailHistogram itself is single-writer (or externally synchronized).
// ShardedTailHistogram is the hot-path concurrent recorder: per-thread
// shards of relaxed atomic counters, so observe() is one wait-free array
// increment plus a handful of relaxed atomic adds; shards are aggregated
// only at snapshot time.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

namespace drlhmd::obs {

/// Shared bucket geometry: value->index and index->value maps used by both
/// the plain histogram and the sharded recorder's atomic shards.  Values are
/// recorded in "units" (the obs layer records microseconds) and quantized
/// to integer ticks; the geometry is fixed for every recorder.
class TailLayout {
 public:
  static constexpr double kMaxValue = 1e8;     // largest value, in units (100 s)
  static constexpr int kPrecisionBits = 7;     // linear sub-bucket bits per octave
  static constexpr double kTicksPerUnit = 1e3; // 1000 => ns ticks on us

  TailLayout();

  std::size_t num_counts() const { return num_counts_; }
  double ticks_per_unit() const { return kTicksPerUnit; }
  int precision_bits() const { return kPrecisionBits; }

  /// Quantize a value in units to ticks (caller has already rejected
  /// non-finite and negative values).  Saturating: ticks above the range
  /// land in the top bucket.
  std::uint64_t ticks_for(double value) const;
  /// Counts-array slot for a tick value (always in range).
  std::size_t index_for(std::uint64_t ticks) const;
  /// Smallest / largest tick value mapping to slot `index`.
  std::uint64_t lowest_equivalent(std::size_t index) const;
  std::uint64_t highest_equivalent(std::size_t index) const;
  /// Largest value (in units) representable without saturating.
  double max_value() const {
    return static_cast<double>(max_ticks_) / kTicksPerUnit;
  }

 private:
  // Linear slots of the first octave: 2^(kPrecisionBits + 1).
  static constexpr std::uint64_t kSubCount = std::uint64_t{2} << kPrecisionBits;
  static constexpr std::uint64_t kSubMask = kSubCount - 1;
  std::uint64_t max_ticks_;         // highest trackable tick (inclusive)
  std::size_t num_counts_;
};

/// Plain (single-writer) log-linear histogram.
class TailHistogram {
 public:
  TailHistogram();

  /// Record one value (in units).  NaN and negative values are dropped
  /// (counted, never poisoning min/max/sum); values above the range
  /// saturate into the top bucket and bump the saturated counter.
  void observe(double value);

  /// Exact-within-bucket quantile (q in [0,1]); NaN when empty.
  double quantile(double q) const;

  std::uint64_t count() const { return count_; }
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t saturated() const { return saturated_; }
  /// Sum of recorded values in units (accumulated in integer ticks, so it
  /// is independent of observation order).
  double sum() const;
  double min() const;  // NaN when empty
  double max() const;  // NaN when empty

  /// Lossless merge.
  void merge(const TailHistogram& other);

  /// Forget every observation, keeping the layout.
  void reset();

  const TailLayout& layout() const { return layout_; }
  const std::vector<std::uint64_t>& counts() const { return counts_; }

  /// One non-empty bucket: value range [lo, hi] in units + its count.
  struct Bucket {
    double lo = 0.0;
    double hi = 0.0;
    std::uint64_t count = 0;
  };

  struct Snapshot {
    std::uint64_t count = 0;
    std::uint64_t dropped = 0;
    std::uint64_t saturated = 0;
    double sum = 0.0;
    double min = std::numeric_limits<double>::quiet_NaN();
    double max = std::numeric_limits<double>::quiet_NaN();
    double p50 = std::numeric_limits<double>::quiet_NaN();
    double p90 = std::numeric_limits<double>::quiet_NaN();
    double p99 = std::numeric_limits<double>::quiet_NaN();
    double p999 = std::numeric_limits<double>::quiet_NaN();
    double p9999 = std::numeric_limits<double>::quiet_NaN();
    std::vector<Bucket> buckets;  // non-empty buckets, ascending
    double mean() const {
      return count ? sum / static_cast<double>(count) : 0.0;
    }
    double quantile(double q) const;  // from the bucket list
  };
  Snapshot snapshot() const;

  // Raw-tick internals shared with the sharded recorder's aggregation.
  void add_ticks(std::size_t index, std::uint64_t n) {
    counts_[index] += n;
    count_ += n;
  }
  void fold_stats(std::uint64_t dropped, std::uint64_t saturated,
                  std::uint64_t sum_ticks, std::uint64_t min_ticks,
                  std::uint64_t max_ticks);

 private:
  TailLayout layout_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t saturated_ = 0;
  std::uint64_t sum_ticks_ = 0;
  std::uint64_t min_ticks_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ticks_seen_ = 0;
};

/// Concurrent recorder: up to kShardSlots shards, one per (dense) thread
/// id, allocated lazily on a thread's first observe.  The hot path is a
/// relaxed fetch_add on the bucket slot plus relaxed adds for count/sum —
/// wait-free after the shard exists, and never a lock or a shared cache
/// line between threads with distinct slots.
class ShardedTailHistogram {
 public:
  static constexpr std::size_t kShardSlots = 64;

  ShardedTailHistogram();
  ~ShardedTailHistogram();
  ShardedTailHistogram(const ShardedTailHistogram&) = delete;
  ShardedTailHistogram& operator=(const ShardedTailHistogram&) = delete;

  void observe(double value);

  /// Merge every shard into one TailHistogram (the exact histogram a
  /// serial recorder would have produced).
  TailHistogram aggregate() const;

  /// Zero every allocated shard in place (shards stay allocated, so no
  /// recording thread ever re-pays the first-observe allocation).  The
  /// stores are relaxed: callers must quiesce concurrent observers first,
  /// exactly like reading an exact snapshot.
  void reset();
  TailHistogram::Snapshot snapshot() const { return aggregate().snapshot(); }

  const TailLayout& layout() const { return layout_; }

 private:
  struct Shard;
  Shard& shard_for_current_thread();

  TailLayout layout_;
  std::atomic<Shard*> shards_[kShardSlots];
};

}  // namespace drlhmd::obs
