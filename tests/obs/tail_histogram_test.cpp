#include "obs/tail_histogram.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "util/rng.hpp"

namespace drlhmd::obs {
namespace {

/// Skewed latency-like stream: mostly-fast samples with a heavy tail, the
/// shape the runtime's stage timings actually have.
std::vector<double> skewed_stream(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = rng.uniform();
    // Exponential body (~40us scale) plus occasional 100x tail spikes.
    double v = -40.0 * std::log(1.0 - 0.999 * u);
    if (rng.uniform() < 0.01) v *= 100.0;
    out.push_back(v);
  }
  return out;
}

/// The oracle quantile: rank ceil(q*n) of the sorted samples (matching the
/// histogram's rank definition).
double oracle_quantile(std::vector<double> sorted, double q) {
  std::sort(sorted.begin(), sorted.end());
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  if (rank < 1) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

TEST(TailLayoutTest, IndexValueMapsAreConsistent) {
  const TailLayout layout;
  for (std::uint64_t ticks : {0ull, 1ull, 100ull, 255ull, 256ull, 257ull,
                              1000ull, 123456ull, 99999999ull}) {
    const std::size_t idx = layout.index_for(ticks);
    EXPECT_LE(layout.lowest_equivalent(idx), ticks);
    EXPECT_GE(layout.highest_equivalent(idx), ticks);
    // A bucket's whole range must map back to the same slot.
    EXPECT_EQ(layout.index_for(layout.lowest_equivalent(idx)), idx);
    EXPECT_EQ(layout.index_for(layout.highest_equivalent(idx)), idx);
  }
}

TEST(TailLayoutTest, BucketRelativeWidthBoundedByPrecision) {
  // Every bucket's width must stay within 2^-precision_bits of its value —
  // that is the exactness guarantee behind "exact-within-bucket" quantiles.
  const TailLayout layout;
  const double rel = 1.0 / static_cast<double>(1 << layout.precision_bits());
  for (std::size_t idx = 0; idx < layout.num_counts(); ++idx) {
    const std::uint64_t lo = layout.lowest_equivalent(idx);
    const std::uint64_t hi = layout.highest_equivalent(idx);
    if (lo == 0) continue;
    EXPECT_LE(static_cast<double>(hi - lo),
              static_cast<double>(hi) * rel)
        << "bucket " << idx;
  }
}

TEST(TailHistogramTest, QuantilesMatchSortedOracleWithinBucketError) {
  const std::vector<double> samples = skewed_stream(50000, 11);
  TailHistogram h;
  for (const double v : samples) h.observe(v);
  ASSERT_EQ(h.count(), samples.size());

  const double rel =
      1.0 / static_cast<double>(1 << h.layout().precision_bits());
  const double tick = 1.0 / h.layout().ticks_per_unit();
  for (const double q : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
    const double oracle = oracle_quantile(samples, q);
    const double est = h.quantile(q);
    // The estimate is the top of the bucket holding the oracle-ranked
    // sample: within one bucket's relative width (plus tick rounding).
    EXPECT_NEAR(est, oracle, oracle * rel + tick)
        << "q=" << q;
  }
}

TEST(TailHistogramTest, SumMinMaxAreExactInTicks) {
  TailHistogram h;
  const std::vector<double> samples = {0.25, 1.5, 3.75, 100.0, 42.125};
  double tick_sum = 0.0;
  for (const double v : samples) {
    h.observe(v);
    tick_sum += std::llround(v * h.layout().ticks_per_unit());
  }
  EXPECT_EQ(h.count(), samples.size());
  EXPECT_DOUBLE_EQ(h.sum(), tick_sum / h.layout().ticks_per_unit());
  EXPECT_DOUBLE_EQ(h.min(), 0.25);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
}

TEST(TailHistogramTest, DropsNonFiniteAndNegative) {
  TailHistogram h;
  h.observe(std::numeric_limits<double>::quiet_NaN());
  h.observe(std::numeric_limits<double>::infinity());
  h.observe(-std::numeric_limits<double>::infinity());
  h.observe(-1.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.dropped(), 4u);
  EXPECT_TRUE(std::isnan(h.min()));
  EXPECT_TRUE(std::isnan(h.max()));
  EXPECT_TRUE(std::isnan(h.quantile(0.5)));
  h.observe(7.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.dropped(), 4u);  // the good sample is unaffected
  EXPECT_DOUBLE_EQ(h.min(), 7.0);
}

TEST(TailHistogramTest, SaturatesAboveRangeButStaysCounted) {
  TailHistogram h;
  h.observe(10.0);
  h.observe(1e12);  // far beyond the 1e8 us (100 s) ceiling
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.saturated(), 1u);
  EXPECT_EQ(h.dropped(), 0u);
  // The saturated sample is clamped into the top bucket, not lost.
  EXPECT_LE(h.max(), h.layout().max_value() + 1.0);
  EXPECT_GE(h.quantile(1.0), 1e8 * 0.99);
}

TEST(TailHistogramTest, MergeEqualsSerialRecording) {
  const std::vector<double> samples = skewed_stream(9000, 23);
  TailHistogram serial;
  TailHistogram parts[3];
  for (std::size_t i = 0; i < samples.size(); ++i) {
    serial.observe(samples[i]);
    parts[i % 3].observe(samples[i]);
  }
  TailHistogram merged;
  for (const auto& p : parts) merged.merge(p);
  EXPECT_EQ(merged.counts(), serial.counts());
  EXPECT_EQ(merged.count(), serial.count());
  EXPECT_EQ(merged.sum(), serial.sum());    // exact: integer tick sums
  EXPECT_EQ(merged.min(), serial.min());
  EXPECT_EQ(merged.max(), serial.max());
  for (const double q : {0.5, 0.9, 0.99, 0.999})
    EXPECT_EQ(merged.quantile(q), serial.quantile(q));
}

TEST(TailHistogramTest, MergeIsAssociativeAndCommutative) {
  TailHistogram a, b, c;
  for (const double v : skewed_stream(2000, 31)) a.observe(v);
  for (const double v : skewed_stream(2000, 37)) b.observe(v);
  for (const double v : skewed_stream(2000, 41)) c.observe(v);

  TailHistogram ab_c;  // (a + b) + c
  ab_c.merge(a);
  ab_c.merge(b);
  ab_c.merge(c);
  TailHistogram c_ba;  // c + (b + a): different order AND grouping
  TailHistogram ba;
  ba.merge(b);
  ba.merge(a);
  c_ba.merge(c);
  c_ba.merge(ba);

  EXPECT_EQ(ab_c.counts(), c_ba.counts());
  EXPECT_EQ(ab_c.count(), c_ba.count());
  EXPECT_EQ(ab_c.sum(), c_ba.sum());  // bitwise: sums accumulate in ticks
  EXPECT_EQ(ab_c.min(), c_ba.min());
  EXPECT_EQ(ab_c.max(), c_ba.max());
  const auto s1 = ab_c.snapshot(), s2 = c_ba.snapshot();
  EXPECT_EQ(s1.p50, s2.p50);
  EXPECT_EQ(s1.p99, s2.p99);
  EXPECT_EQ(s1.p9999, s2.p9999);
}

TEST(TailHistogramTest, SnapshotBucketsAreConsistent) {
  TailHistogram h;
  for (const double v : skewed_stream(5000, 43)) h.observe(v);
  const auto snap = h.snapshot();
  std::uint64_t total = 0;
  double prev_hi = -1.0;
  for (const auto& b : snap.buckets) {
    EXPECT_GT(b.count, 0u);
    EXPECT_LE(b.lo, b.hi);
    EXPECT_GT(b.lo, prev_hi);  // ascending, non-overlapping
    prev_hi = b.hi;
    total += b.count;
  }
  EXPECT_EQ(total, snap.count);
  // Snapshot::quantile walks the bucket list and must agree with the
  // histogram's own counts-array walk.
  for (const double q : {0.5, 0.9, 0.99, 0.999, 0.9999})
    EXPECT_EQ(snap.quantile(q), h.quantile(q));
  EXPECT_EQ(snap.p50, h.quantile(0.5));
  EXPECT_EQ(snap.p9999, h.quantile(0.9999));
  EXPECT_DOUBLE_EQ(snap.mean(), snap.sum / static_cast<double>(snap.count));
}

TEST(ShardedTailHistogramTest, ConcurrentObservesAggregateExactly) {
  constexpr int kThreads = 8;
  constexpr int kIters = 4000;
  ShardedTailHistogram sharded;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&sharded, t] {
      for (int i = 0; i < kIters; ++i)
        sharded.observe(static_cast<double>((t * 131 + i) % 500) + 0.25);
    });
  }
  for (auto& w : workers) w.join();

  // The aggregate must be the exact histogram a serial recorder produces
  // from the same multiset of observations.
  TailHistogram serial;
  for (int t = 0; t < kThreads; ++t)
    for (int i = 0; i < kIters; ++i)
      serial.observe(static_cast<double>((t * 131 + i) % 500) + 0.25);

  const TailHistogram merged = sharded.aggregate();
  EXPECT_EQ(merged.count(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(merged.counts(), serial.counts());
  EXPECT_EQ(merged.sum(), serial.sum());
  EXPECT_EQ(merged.min(), serial.min());
  EXPECT_EQ(merged.max(), serial.max());
  const auto got = sharded.snapshot(), want = serial.snapshot();
  EXPECT_EQ(got.p50, want.p50);
  EXPECT_EQ(got.p99, want.p99);
  EXPECT_EQ(got.p999, want.p999);
}

TEST(ShardedTailHistogramTest, DroppedAndSaturatedPropagate) {
  ShardedTailHistogram sharded;
  sharded.observe(std::numeric_limits<double>::quiet_NaN());
  sharded.observe(-3.0);
  sharded.observe(1e12);  // above the 1e8 us ceiling
  sharded.observe(5.0);
  const TailHistogram agg = sharded.aggregate();
  EXPECT_EQ(agg.dropped(), 2u);
  EXPECT_EQ(agg.saturated(), 1u);
  EXPECT_EQ(agg.count(), 2u);  // saturated sample still counted
}

}  // namespace
}  // namespace drlhmd::obs
