// Telemetry under concurrency: the sharded tail recorder must lose nothing
// under contention, and — because sums accumulate in integer ticks — the
// same multiset of observations must snapshot bitwise identically no matter
// how many threads recorded it (DRLHMD_THREADS=1/2/8 equivalence).  Turning
// telemetry on must not change what the detection runtime decides.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/runtime.hpp"
#include "obs/tail_histogram.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace drlhmd {
namespace {

/// Deterministic latency-like value for index i (same multiset every run).
double sample_value(std::size_t i) {
  return static_cast<double>((i * 2654435761u) % 100000) / 100.0 + 0.125;
}

class TelemetrySweep : public ::testing::Test {
 protected:
  void TearDown() override {
    obs::Telemetry::set_enabled(false);
    obs::Telemetry::reset();
    util::set_parallel_threads(saved_);
  }

 private:
  std::size_t saved_ = util::parallel_thread_count();
};

TEST_F(TelemetrySweep, ShardedObserveStressLosesNothing) {
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  obs::ShardedTailHistogram tail;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&tail, t] {
      for (int i = 0; i < kIters; ++i)
        tail.observe(sample_value(static_cast<std::size_t>(t) * kIters +
                                  static_cast<std::size_t>(i)));
    });
  }
  for (auto& w : workers) w.join();

  const auto snap = tail.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(snap.dropped, 0u);
  // Tick sums are exact: the concurrent total equals the serial total.
  obs::TailHistogram serial;
  for (std::size_t i = 0; i < std::size_t{kThreads} * kIters; ++i)
    serial.observe(sample_value(i));
  EXPECT_EQ(snap.sum, serial.sum());
  EXPECT_EQ(snap.min, serial.min());
  EXPECT_EQ(snap.max, serial.max());
}

TEST_F(TelemetrySweep, SnapshotsBitwiseIdenticalAcrossThreadWidths) {
  // The same deterministic observations recorded from parallel_for chunks
  // at widths 1, 2, and 8 must aggregate to bitwise identical snapshots —
  // integer-tick state makes the result order-independent.
  const auto run_at_width = [](std::size_t width) {
    util::set_parallel_threads(width);
    obs::ShardedTailHistogram tail;
    util::parallel_for("telemetry_sweep", 0, 8192, 128,
                       [&](std::size_t i) { tail.observe(sample_value(i)); });
    return tail.snapshot();
  };
  const auto s1 = run_at_width(1);
  const auto s2 = run_at_width(2);
  const auto s8 = run_at_width(8);

  const auto expect_bitwise_equal = [](const obs::TailHistogram::Snapshot& a,
                                       const obs::TailHistogram::Snapshot& b) {
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.saturated, b.saturated);
    EXPECT_EQ(a.sum, b.sum);  // exact doubles, not NEAR
    EXPECT_EQ(a.min, b.min);
    EXPECT_EQ(a.max, b.max);
    EXPECT_EQ(a.p50, b.p50);
    EXPECT_EQ(a.p90, b.p90);
    EXPECT_EQ(a.p99, b.p99);
    EXPECT_EQ(a.p999, b.p999);
    EXPECT_EQ(a.p9999, b.p9999);
    ASSERT_EQ(a.buckets.size(), b.buckets.size());
    for (std::size_t i = 0; i < a.buckets.size(); ++i) {
      EXPECT_EQ(a.buckets[i].lo, b.buckets[i].lo);
      EXPECT_EQ(a.buckets[i].hi, b.buckets[i].hi);
      EXPECT_EQ(a.buckets[i].count, b.buckets[i].count);
    }
  };
  expect_bitwise_equal(s1, s2);
  expect_bitwise_equal(s1, s8);
}

TEST_F(TelemetrySweep, ParallelBridgeRecordsChunksAndFlowEvents) {
  obs::Telemetry::reset();
  obs::Telemetry::set_enabled(true);
  util::set_parallel_threads(2);

  std::atomic<std::uint64_t> sink{0};
  util::parallel_for("bridge_probe", 0, 256, 16, [&](std::size_t i) {
    sink.fetch_add(i, std::memory_order_relaxed);
  });
  obs::Telemetry::set_enabled(false);

  // 256 items at grain 16 => 16 chunks, each recorded into the exact tail.
  const auto snap = obs::Telemetry::metrics().snapshot();
  const auto* tail = snap.find_tail("drlhmd.parallel.chunk_us",
                                    {{"label", "bridge_probe"}});
  ASSERT_NE(tail, nullptr);
  EXPECT_EQ(tail->data.count, 16u);
  const auto* chunks =
      snap.find_counter("drlhmd.parallel.chunks", {{"label", "bridge_probe"}});
  ASSERT_NE(chunks, nullptr);
  EXPECT_EQ(chunks->value, 16u);

  // The fork span and all 16 chunk slices share one nonzero flow id.
  const auto events = obs::Telemetry::tracer().events();
  std::uint64_t flow = 0;
  std::size_t chunk_events = 0;
  for (const auto& ev : events) {
    if (ev.name == "parallel.bridge_probe") {
      EXPECT_EQ(ev.category, "parallel");
      EXPECT_FALSE(ev.open);
      flow = ev.flow_id;
    }
  }
  ASSERT_NE(flow, 0u);
  for (const auto& ev : events) {
    if (ev.name.rfind("bridge_probe.chunk", 0) == 0) {
      EXPECT_EQ(ev.flow_id, flow);
      EXPECT_EQ(ev.category, "parallel");
      ++chunk_events;
    }
  }
  EXPECT_EQ(chunk_events, 16u);
}

TEST_F(TelemetrySweep, DisabledTelemetryObservesNoRegions) {
  obs::Telemetry::reset();
  obs::Telemetry::set_enabled(false);
  util::set_parallel_threads(2);
  util::parallel_for("unobserved_probe", 0, 64, 8, [](std::size_t) {});
  const auto snap = obs::Telemetry::metrics().snapshot();
  EXPECT_EQ(snap.find_tail("drlhmd.parallel.chunk_us",
                           {{"label", "unobserved_probe"}}),
            nullptr);
  EXPECT_EQ(snap.find_counter("drlhmd.parallel.regions",
                              {{"label", "unobserved_probe"}}),
            nullptr);
}

TEST_F(TelemetrySweep, OneRowProcessOpensNoObservedRegion) {
  // A one-row process() scores one pipeline chunk: nothing forks, so the
  // parallel bridge records no region, span or chunk for it, and the
  // runtime's own batch tail still times every call.
  core::FrameworkConfig cfg;
  cfg.corpus.benign_apps = 30;
  cfg.corpus.malware_apps = 30;
  cfg.corpus.windows_per_app = 3;
  core::Framework fw(cfg);
  fw.run_all();
  core::RuntimeConfig rcfg;
  rcfg.retrain_threshold = 0;
  rcfg.integrity_check_period = 0;

  util::set_parallel_threads(2);
  obs::Telemetry::reset();
  obs::Telemetry::set_enabled(true);
  core::DetectionRuntime runtime(fw, rcfg);
  const ml::Dataset& test = fw.test_set();
  ASSERT_GE(test.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) runtime.process(test.row_copy(i));
  obs::Telemetry::set_enabled(false);

  const obs::MetricsSnapshot global = obs::Telemetry::metrics().snapshot();
  EXPECT_EQ(global.find_counter("drlhmd.parallel.regions",
                                {{"label", "runtime.batch_score"}}),
            nullptr);
  for (const auto& ev : obs::Telemetry::tracer().events())
    EXPECT_NE(ev.name, "parallel.runtime.batch_score");
  const obs::MetricsSnapshot local = runtime.metrics().snapshot();
  const obs::TailSample* batch_tail =
      local.find_tail("drlhmd.runtime.batch_tail_us", {});
  ASSERT_NE(batch_tail, nullptr);
  EXPECT_EQ(batch_tail->data.count, 10u);
}

TEST_F(TelemetrySweep, RuntimeResultsIndependentOfTelemetryAndWidth) {
  core::FrameworkConfig cfg;
  cfg.corpus.benign_apps = 30;
  cfg.corpus.malware_apps = 30;
  cfg.corpus.windows_per_app = 3;
  core::Framework fw(cfg);
  fw.run_all();
  const ml::Dataset& mix = fw.attacked_test_mix();
  core::RuntimeConfig rcfg;
  rcfg.retrain_threshold = 0;  // a retrain would refit the shared framework
  rcfg.integrity_check_period = 7;
  rcfg.policy = rl::ConstraintPolicy::kSmallMemory;
  // Chunk layout depends only on the row count, never on the pool width.
  const std::size_t grain = util::parallel_resolve_grain(mix.size(), 0);
  const std::size_t chunks = (mix.size() + grain - 1) / grain;

  struct Run {
    ml::MetricReport report;
    std::vector<core::TrafficVerdict> verdicts;
    core::RuntimeStats stats;
    std::size_t quarantine = 0;
    std::uint64_t predictor_tail = 0, detector_tail = 0, integrity_tail = 0,
                  batch_tail = 0, bridged_chunks = 0;
  };
  const auto run = [&](std::size_t width, bool telemetry) {
    util::set_parallel_threads(width);
    obs::Telemetry::reset();
    obs::Telemetry::set_enabled(telemetry);
    core::DetectionRuntime runtime(fw, rcfg);
    Run r;
    r.report = runtime.process_stream(mix);
    r.verdicts = runtime.process_batch(mix.X.view());
    obs::Telemetry::set_enabled(false);
    r.stats = runtime.stats();
    r.quarantine = runtime.quarantine_size();
    const obs::MetricsSnapshot snap = runtime.metrics().snapshot();
    const auto count = [&snap](const char* name, const obs::Labels& labels) {
      const obs::TailSample* tail = snap.find_tail(name, labels);
      return tail != nullptr ? tail->data.count : std::uint64_t{0};
    };
    r.predictor_tail =
        count("drlhmd.runtime.stage_tail_us", {{"stage", "predictor"}});
    r.detector_tail = count("drlhmd.runtime.stage_tail_us", {{"stage", "detector"}});
    r.integrity_tail =
        count("drlhmd.runtime.stage_tail_us", {{"stage", "integrity"}});
    r.batch_tail = count("drlhmd.runtime.batch_tail_us", {});
    const obs::MetricsSnapshot global = obs::Telemetry::metrics().snapshot();
    const auto* bridged = global.find_counter(
        "drlhmd.parallel.chunks", {{"label", "runtime.batch_score"}});
    r.bridged_chunks = bridged != nullptr ? bridged->value : 0;
    return r;
  };

  const Run base = run(1, false);
  ASSERT_EQ(base.verdicts.size(), mix.size());
  ASSERT_GT(base.stats.integrity_checks, 0u);
  for (const std::size_t width : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    for (const bool telemetry : {false, true}) {
      SCOPED_TRACE("width " + std::to_string(width) +
                   (telemetry ? ", telemetry on" : ", telemetry off"));
      const Run r = run(width, telemetry);
      EXPECT_EQ(r.verdicts, base.verdicts);
      EXPECT_EQ(r.report.confusion.tp, base.report.confusion.tp);
      EXPECT_EQ(r.report.confusion.fp, base.report.confusion.fp);
      EXPECT_EQ(r.report.confusion.tn, base.report.confusion.tn);
      EXPECT_EQ(r.report.confusion.fn, base.report.confusion.fn);
      EXPECT_EQ(r.report.f1, base.report.f1);
      EXPECT_EQ(r.stats.processed, base.stats.processed);
      EXPECT_EQ(r.stats.benign, base.stats.benign);
      EXPECT_EQ(r.stats.malware, base.stats.malware);
      EXPECT_EQ(r.stats.adversarial, base.stats.adversarial);
      EXPECT_EQ(r.stats.integrity_checks, base.stats.integrity_checks);
      EXPECT_EQ(r.stats.integrity_alarms, 0u);
      EXPECT_EQ(r.quarantine, base.quarantine);
      // Two batches (process_stream, then process_batch), each scored as
      // `chunks` pipeline chunks: one stage sample per chunk and stage.
      const std::uint64_t want_chunks = telemetry ? 2 * chunks : 0;
      EXPECT_EQ(r.bridged_chunks, want_chunks);
      EXPECT_EQ(r.predictor_tail, want_chunks);
      EXPECT_EQ(r.detector_tail, want_chunks);
      EXPECT_EQ(r.integrity_tail, telemetry ? r.stats.integrity_checks : 0);
      EXPECT_EQ(r.batch_tail, telemetry ? 2u : 0u);
    }
  }
}

}  // namespace
}  // namespace drlhmd
