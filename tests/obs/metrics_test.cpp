#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "obs/json.hpp"

namespace drlhmd::obs {
namespace {

TEST(MetricKeyTest, LabelsAreSortedAndCanonical) {
  EXPECT_EQ(metric_key("m", {}), "m");
  EXPECT_EQ(metric_key("m", {{"b", "2"}, {"a", "1"}}), "m{a=1,b=2}");
  EXPECT_EQ(metric_key("m", {{"a", "1"}, {"b", "2"}}),
            metric_key("m", {{"b", "2"}, {"a", "1"}}));
}

TEST(CounterTest, IncrementsMonotonically) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.set(2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST(MetricsRegistryTest, HandlesAreStableAndIdentityAddressed) {
  MetricsRegistry reg;
  Counter& a = reg.counter("drlhmd.test.hits", {{"shard", "0"}});
  Counter& b = reg.counter("drlhmd.test.hits", {{"shard", "0"}});
  Counter& c = reg.counter("drlhmd.test.hits", {{"shard", "1"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  a.inc(3);
  c.inc();
  const auto snap = reg.snapshot();
  const auto* s0 = snap.find_counter("drlhmd.test.hits", {{"shard", "0"}});
  const auto* s1 = snap.find_counter("drlhmd.test.hits", {{"shard", "1"}});
  ASSERT_NE(s0, nullptr);
  ASSERT_NE(s1, nullptr);
  EXPECT_EQ(s0->value, 3u);
  EXPECT_EQ(s1->value, 1u);
}

TEST(MetricsRegistryTest, ConcurrentUpdatesFromManyThreads) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg, t] {
      // Every thread resolves its own handles (exercises registry locking)
      // and hammers shared metrics.
      Counter& hits = reg.counter("drlhmd.test.concurrent.hits");
      Gauge& level = reg.gauge("drlhmd.test.concurrent.level");
      ShardedTailHistogram& lat = reg.tail("drlhmd.test.concurrent.latency_us");
      for (int i = 0; i < kIters; ++i) {
        hits.inc();
        level.add(1.0);
        lat.observe(static_cast<double>((t * kIters + i) % 100));
      }
    });
  }
  for (auto& w : workers) w.join();
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.find_counter("drlhmd.test.concurrent.hits")->value,
            static_cast<std::uint64_t>(kThreads * kIters));
  EXPECT_DOUBLE_EQ(snap.find_gauge("drlhmd.test.concurrent.level")->value,
                   static_cast<double>(kThreads * kIters));
  EXPECT_EQ(snap.find_tail("drlhmd.test.concurrent.latency_us")->data.count,
            static_cast<std::uint64_t>(kThreads * kIters));
}

TEST(MetricsSnapshotTest, JsonIsValidAndCarriesAllSections) {
  MetricsRegistry reg;
  reg.counter("drlhmd.test.count").inc(5);
  reg.gauge("drlhmd.test.level", {{"k", "v"}}).set(1.25);
  reg.tail("drlhmd.test.lat_us").observe(42.0);
  const std::string json = reg.snapshot().to_json();
  EXPECT_TRUE(json_valid(json));
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"tails\""), std::string::npos);
  EXPECT_NE(json.find("\"p999\""), std::string::npos);
  // Tails are the one latency recorder: no legacy histogram section.
  EXPECT_EQ(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("drlhmd.test.count"), std::string::npos);
}

TEST(MetricsSnapshotTest, TableRendersEveryMetric) {
  MetricsRegistry reg;
  reg.counter("drlhmd.test.count").inc();
  reg.tail("drlhmd.test.lat_us").observe(1.0);
  const std::string table = reg.snapshot().to_table();
  EXPECT_NE(table.find("drlhmd.test.count"), std::string::npos);
  EXPECT_NE(table.find("drlhmd.test.lat_us"), std::string::npos);
  EXPECT_NE(table.find("p999"), std::string::npos);
}

TEST(MetricsRegistryTest, ClearEmptiesTheRegistry) {
  MetricsRegistry reg;
  reg.counter("a").inc();
  reg.gauge("b").set(1);
  reg.tail("c").observe(1);
  EXPECT_EQ(reg.size(), 3u);
  reg.clear();
  EXPECT_EQ(reg.size(), 0u);
}

}  // namespace
}  // namespace drlhmd::obs
