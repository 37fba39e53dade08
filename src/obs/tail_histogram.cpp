#include "obs/tail_histogram.hpp"

#include <bit>
#include <cmath>

#include "obs/clock.hpp"

namespace drlhmd::obs {

// ---------------------------------------------------------------------------
// Layout.

TailLayout::TailLayout() {
  const auto requested =
      static_cast<std::uint64_t>(std::llround(kMaxValue * kTicksPerUnit));
  // Snap the range up to the top of the enclosing bucket so the last
  // bucket is fully usable.
  max_ticks_ = requested;  // provisional: index_for needs a value in range
  max_ticks_ = highest_equivalent(index_for(requested));
  num_counts_ = index_for(max_ticks_) + 1;
}

std::uint64_t TailLayout::ticks_for(double value) const {
  const double scaled = value * kTicksPerUnit;
  if (scaled >= static_cast<double>(max_ticks_)) return max_ticks_;
  return static_cast<std::uint64_t>(std::llround(scaled));
}

std::size_t TailLayout::index_for(std::uint64_t ticks) const {
  if (ticks > max_ticks_) ticks = max_ticks_;
  // Octave of the value relative to the linear range: values below
  // kSubCount land in bucket 0 with unit-width slots; each octave above
  // doubles the slot width and reuses the upper half of the sub-bucket
  // index space.
  const int bucket = std::bit_width(ticks | kSubMask) - 1 - kPrecisionBits;
  const std::uint64_t sub = ticks >> (bucket > 0 ? bucket : 0);
  const int b = bucket > 0 ? bucket : 0;
  return (static_cast<std::size_t>(b) << kPrecisionBits) +
         static_cast<std::size_t>(sub);
}

std::uint64_t TailLayout::lowest_equivalent(std::size_t index) const {
  if (index < kSubCount) return index;
  const int bucket = static_cast<int>(index >> kPrecisionBits) - 1;
  const std::uint64_t sub =
      index - (static_cast<std::size_t>(bucket) << kPrecisionBits);
  return sub << bucket;
}

std::uint64_t TailLayout::highest_equivalent(std::size_t index) const {
  if (index < kSubCount) return index;
  const int bucket = static_cast<int>(index >> kPrecisionBits) - 1;
  const std::uint64_t sub =
      index - (static_cast<std::size_t>(bucket) << kPrecisionBits);
  return ((sub + 1) << bucket) - 1;
}

namespace {

enum class SampleKind { kDropped, kOk, kSaturated };

/// Classify one observation and quantize it; NaN, Inf, and negative values
/// never reach the buckets (they would poison min/max/sum).
SampleKind classify(const TailLayout& layout, double value,
                    std::uint64_t& ticks) {
  if (!std::isfinite(value) || value < 0.0) return SampleKind::kDropped;
  ticks = layout.ticks_for(value);
  return value > layout.max_value() ? SampleKind::kSaturated : SampleKind::kOk;
}

}  // namespace

// ---------------------------------------------------------------------------
// TailHistogram.

TailHistogram::TailHistogram() : counts_(layout_.num_counts(), 0) {}

void TailHistogram::observe(double value) {
  std::uint64_t ticks = 0;
  const SampleKind kind = classify(layout_, value, ticks);
  if (kind == SampleKind::kDropped) {
    ++dropped_;
    return;
  }
  if (kind == SampleKind::kSaturated) ++saturated_;
  ++counts_[layout_.index_for(ticks)];
  ++count_;
  sum_ticks_ += ticks;
  if (ticks < min_ticks_) min_ticks_ = ticks;
  if (ticks > max_ticks_seen_) max_ticks_seen_ = ticks;
}

double TailHistogram::sum() const {
  return static_cast<double>(sum_ticks_) / layout_.ticks_per_unit();
}

double TailHistogram::min() const {
  if (count_ == 0) return std::numeric_limits<double>::quiet_NaN();
  return static_cast<double>(min_ticks_) / layout_.ticks_per_unit();
}

double TailHistogram::max() const {
  if (count_ == 0) return std::numeric_limits<double>::quiet_NaN();
  return static_cast<double>(max_ticks_seen_) / layout_.ticks_per_unit();
}

double TailHistogram::quantile(double q) const {
  if (count_ == 0) return std::numeric_limits<double>::quiet_NaN();
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the q-quantile sample (1-based); ceil so p100 is the max.
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  if (rank < 1) rank = 1;
  if (rank > count_) rank = count_;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cumulative += counts_[i];
    if (cumulative >= rank) {
      return static_cast<double>(layout_.highest_equivalent(i)) /
             layout_.ticks_per_unit();
    }
  }
  return max();  // unreachable when counts are consistent
}

void TailHistogram::reset() {
  counts_.assign(counts_.size(), 0);
  count_ = 0;
  dropped_ = 0;
  saturated_ = 0;
  sum_ticks_ = 0;
  min_ticks_ = std::numeric_limits<std::uint64_t>::max();
  max_ticks_seen_ = 0;
}

void TailHistogram::fold_stats(std::uint64_t dropped, std::uint64_t saturated,
                               std::uint64_t sum_ticks,
                               std::uint64_t min_ticks,
                               std::uint64_t max_ticks) {
  dropped_ += dropped;
  saturated_ += saturated;
  sum_ticks_ += sum_ticks;
  if (min_ticks < min_ticks_) min_ticks_ = min_ticks;
  if (max_ticks > max_ticks_seen_) max_ticks_seen_ = max_ticks;
}

void TailHistogram::merge(const TailHistogram& other) {
  for (std::size_t i = 0; i < counts_.size(); ++i)
    counts_[i] += other.counts_[i];
  count_ += other.count_;
  fold_stats(other.dropped_, other.saturated_, other.sum_ticks_,
             other.min_ticks_, other.max_ticks_seen_);
}

double TailHistogram::Snapshot::quantile(double q) const {
  if (count == 0) return std::numeric_limits<double>::quiet_NaN();
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count)));
  if (rank < 1) rank = 1;
  if (rank > count) rank = count;
  std::uint64_t cumulative = 0;
  for (const Bucket& b : buckets) {
    cumulative += b.count;
    if (cumulative >= rank) return b.hi;
  }
  return max;
}

TailHistogram::Snapshot TailHistogram::snapshot() const {
  Snapshot snap;
  snap.count = count_;
  snap.dropped = dropped_;
  snap.saturated = saturated_;
  snap.sum = sum();
  snap.min = min();
  snap.max = max();
  snap.p50 = quantile(0.50);
  snap.p90 = quantile(0.90);
  snap.p99 = quantile(0.99);
  snap.p999 = quantile(0.999);
  snap.p9999 = quantile(0.9999);
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    snap.buckets.push_back(
        {static_cast<double>(layout_.lowest_equivalent(i)) /
             layout_.ticks_per_unit(),
         static_cast<double>(layout_.highest_equivalent(i)) /
             layout_.ticks_per_unit(),
         counts_[i]});
  }
  return snap;
}

// ---------------------------------------------------------------------------
// ShardedTailHistogram.

struct ShardedTailHistogram::Shard {
  explicit Shard(std::size_t n_counts)
      : counts(new std::atomic<std::uint64_t>[n_counts]) {
    for (std::size_t i = 0; i < n_counts; ++i)
      counts[i].store(0, std::memory_order_relaxed);
  }

  std::unique_ptr<std::atomic<std::uint64_t>[]> counts;
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> saturated{0};
  std::atomic<std::uint64_t> sum_ticks{0};
  std::atomic<std::uint64_t> min_ticks{
      std::numeric_limits<std::uint64_t>::max()};
  std::atomic<std::uint64_t> max_ticks{0};
};

ShardedTailHistogram::ShardedTailHistogram() {
  for (auto& slot : shards_) slot.store(nullptr, std::memory_order_relaxed);
}

ShardedTailHistogram::~ShardedTailHistogram() {
  for (auto& slot : shards_) delete slot.load(std::memory_order_acquire);
}

ShardedTailHistogram::Shard& ShardedTailHistogram::shard_for_current_thread() {
  const std::size_t slot = current_thread_id() % kShardSlots;
  Shard* shard = shards_[slot].load(std::memory_order_acquire);
  if (shard != nullptr) return *shard;
  auto* fresh = new Shard(layout_.num_counts());
  Shard* expected = nullptr;
  if (shards_[slot].compare_exchange_strong(expected, fresh,
                                            std::memory_order_acq_rel)) {
    return *fresh;
  }
  delete fresh;  // another thread on the same slot won the install
  return *expected;
}

void ShardedTailHistogram::observe(double value) {
  std::uint64_t ticks = 0;
  const SampleKind kind = classify(layout_, value, ticks);
  Shard& shard = shard_for_current_thread();
  if (kind == SampleKind::kDropped) {
    shard.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (kind == SampleKind::kSaturated)
    shard.saturated.fetch_add(1, std::memory_order_relaxed);
  // The hot path: one wait-free increment on the bucket slot.
  shard.counts[layout_.index_for(ticks)].fetch_add(1,
                                                   std::memory_order_relaxed);
  shard.count.fetch_add(1, std::memory_order_relaxed);
  shard.sum_ticks.fetch_add(ticks, std::memory_order_relaxed);
  std::uint64_t seen = shard.min_ticks.load(std::memory_order_relaxed);
  while (ticks < seen && !shard.min_ticks.compare_exchange_weak(
                             seen, ticks, std::memory_order_relaxed)) {
  }
  seen = shard.max_ticks.load(std::memory_order_relaxed);
  while (ticks > seen && !shard.max_ticks.compare_exchange_weak(
                             seen, ticks, std::memory_order_relaxed)) {
  }
}

void ShardedTailHistogram::reset() {
  for (auto& slot : shards_) {
    Shard* shard = slot.load(std::memory_order_acquire);
    if (shard == nullptr) continue;
    for (std::size_t i = 0; i < layout_.num_counts(); ++i)
      shard->counts[i].store(0, std::memory_order_relaxed);
    shard->count.store(0, std::memory_order_relaxed);
    shard->dropped.store(0, std::memory_order_relaxed);
    shard->saturated.store(0, std::memory_order_relaxed);
    shard->sum_ticks.store(0, std::memory_order_relaxed);
    shard->min_ticks.store(std::numeric_limits<std::uint64_t>::max(),
                           std::memory_order_relaxed);
    shard->max_ticks.store(0, std::memory_order_relaxed);
  }
}

TailHistogram ShardedTailHistogram::aggregate() const {
  TailHistogram merged;
  for (const auto& slot : shards_) {
    const Shard* shard = slot.load(std::memory_order_acquire);
    if (shard == nullptr) continue;
    for (std::size_t i = 0; i < layout_.num_counts(); ++i) {
      const std::uint64_t n = shard->counts[i].load(std::memory_order_relaxed);
      if (n != 0) merged.add_ticks(i, n);
    }
    merged.fold_stats(shard->dropped.load(std::memory_order_relaxed),
                      shard->saturated.load(std::memory_order_relaxed),
                      shard->sum_ticks.load(std::memory_order_relaxed),
                      shard->min_ticks.load(std::memory_order_relaxed),
                      shard->max_ticks.load(std::memory_order_relaxed));
  }
  return merged;
}

}  // namespace drlhmd::obs
