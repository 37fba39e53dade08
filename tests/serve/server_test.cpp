// DetectionServer behavior: session/drop accounting under backpressure,
// adaptive flush reasons, the background drain thread, and the drlhmd.serve.*
// metrics surface.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "core/framework.hpp"

namespace drlhmd::serve {
namespace {

core::FrameworkConfig serve_framework_config() {
  core::FrameworkConfig cfg;
  cfg.corpus.benign_apps = 40;
  cfg.corpus.malware_apps = 40;
  cfg.corpus.windows_per_app = 4;
  cfg.seed = 2024;
  return cfg;
}

core::RuntimeConfig frozen_runtime_config() {
  // Frozen models: no retrains or integrity sweeps mid-test, so verdict
  // streams depend only on the rows.
  core::RuntimeConfig cfg;
  cfg.retrain_threshold = 0;
  cfg.integrity_check_period = 0;
  return cfg;
}

/// Expensive trained pipeline shared across the suite.
class ServerFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    framework_ = new core::Framework(serve_framework_config());
    framework_->run_all();
  }
  static void TearDownTestSuite() {
    delete framework_;
    framework_ = nullptr;
  }
  static core::Framework* framework_;
};

core::Framework* ServerFixture::framework_ = nullptr;

TEST_F(ServerFixture, RejectsInvalidConfig) {
  core::DetectionRuntime runtime(*framework_, frozen_runtime_config());
  ServeConfig cfg;
  EXPECT_THROW(DetectionServer(runtime, 0, cfg), std::invalid_argument);
  EXPECT_THROW(DetectionServer(runtime, kMaxSampleFeatures + 1, cfg),
               std::invalid_argument);
  cfg.hosts = 0;
  EXPECT_THROW(DetectionServer(runtime, framework_->test_set().num_features(),
                               cfg),
               std::invalid_argument);
}

TEST_F(ServerFixture, ManualPollAnswersEveryAcceptedSample) {
  core::DetectionRuntime runtime(*framework_, frozen_runtime_config());
  const ml::Dataset& mix = framework_->attacked_test_mix();
  const std::size_t cols = mix.num_features();

  // (hosts, shards): one ring, then 7 hosts over three rings, an uneven
  // host -> shard spread the drain thread must visit in turn.
  const std::pair<std::size_t, std::size_t> layouts[] = {{4, 1}, {7, 3}};
  for (const auto& [hosts, shards] : layouts) {
    SCOPED_TRACE(testing::Message() << hosts << " hosts, " << shards
                                    << " shards");
    ServeConfig cfg;
    cfg.hosts = hosts;
    cfg.shards = shards;
    cfg.ring_capacity = 4096;
    cfg.completion_capacity = 4096;
    cfg.max_batch = 16;
    DetectionServer server(runtime, cols, cfg);

    const std::size_t n = std::min<std::size_t>(mix.size(), 64);
    std::vector<std::size_t> per_host(cfg.hosts, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const auto host = static_cast<std::uint32_t>(i % cfg.hosts);
      const std::vector<double> row = mix.row_copy(i);
      const auto res = server.try_enqueue(host, row);
      ASSERT_TRUE(res.accepted);
      EXPECT_EQ(res.seq, per_host[host]);  // per-host sequence stamping
      ++per_host[host];
    }
    EXPECT_EQ(server.poll(), n);

    std::size_t popped = 0;
    for (std::uint32_t host = 0; host < cfg.hosts; ++host) {
      VerdictRecord rec;
      std::uint32_t expected_seq = 0;
      while (server.try_pop_verdict(host, rec)) {
        EXPECT_EQ(rec.host, host);
        EXPECT_EQ(rec.seq, expected_seq++);  // in-order per host
        EXPECT_GE(rec.verdict_tick_ns, rec.enqueue_tick_ns);
        EXPECT_NE(rec.verdict, core::TrafficVerdict::kDropped);
        ++popped;
      }
      const HostSessionSnapshot s = server.session(host);
      EXPECT_EQ(s.enqueued, per_host[host]);
      EXPECT_EQ(s.delivered, per_host[host]);
      EXPECT_EQ(s.dropped, 0u);
    }
    EXPECT_EQ(popped, n);

    const ServeStats stats = server.stats();
    EXPECT_EQ(stats.enqueued, n);
    EXPECT_EQ(stats.scored, n);
    EXPECT_EQ(stats.delivered, n);
    EXPECT_EQ(stats.dropped, 0u);
    EXPECT_EQ(stats.queue_depth, 0u);
  }
}

TEST_F(ServerFixture, FullRingBurnsSequenceNumbersAndCountsDrops) {
  core::DetectionRuntime runtime(*framework_, frozen_runtime_config());
  const ml::Dataset& mix = framework_->attacked_test_mix();

  ServeConfig cfg;
  cfg.hosts = 1;
  cfg.ring_capacity = 2;  // already a power of two; floor for the ring
  cfg.completion_capacity = 64;
  DetectionServer server(runtime, mix.num_features(), cfg);

  const std::size_t attempts = 10;
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < attempts; ++i) {
    const std::vector<double> row = mix.row_copy(i % mix.size());
    const auto res = server.try_enqueue(0, row);
    // Sequence numbers are stamped on arrival, shed or not.
    EXPECT_EQ(res.seq, i);
    accepted += res.accepted ? 1 : 0;
  }
  ASSERT_LT(accepted, attempts);  // the tiny ring must have shed some

  const HostSessionSnapshot before = server.session(0);
  EXPECT_EQ(before.enqueued, accepted);
  EXPECT_EQ(before.dropped, attempts - accepted);
  EXPECT_EQ(before.next_seq, attempts);
  EXPECT_EQ(before.last_verdict, core::TrafficVerdict::kDropped);

  server.poll();
  // Gaps in the delivered sequence stream are exactly the drops.
  VerdictRecord rec;
  std::vector<std::uint32_t> seqs;
  while (server.try_pop_verdict(0, rec)) seqs.push_back(rec.seq);
  ASSERT_EQ(seqs.size(), accepted);
  std::size_t gaps = 0;
  std::uint32_t prev = 0;
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    if (i > 0) {
      ASSERT_GT(seqs[i], prev);
      gaps += seqs[i] - prev - 1;
    } else {
      gaps += seqs[0];
    }
    prev = seqs[i];
  }
  gaps += (attempts - 1) - prev;  // drops after the last delivered sample
  EXPECT_EQ(gaps, attempts - accepted);
  EXPECT_EQ(server.stats().dropped, attempts - accepted);
}

TEST_F(ServerFixture, AdaptiveFlushReasonsAreAccounted) {
  core::DetectionRuntime runtime(*framework_, frozen_runtime_config());
  const ml::Dataset& mix = framework_->attacked_test_mix();

  ServeConfig cfg;
  cfg.hosts = 2;
  cfg.ring_capacity = 256;
  cfg.completion_capacity = 256;
  cfg.max_batch = 4;
  cfg.max_wait_us = 200.0;
  DetectionServer server(runtime, mix.num_features(), cfg);

  // 9 staged rows at max_batch=4: poll() flushes 4+4 as kFull and the
  // final 1 as a forced kDrain.
  for (std::size_t i = 0; i < 9; ++i) {
    ASSERT_TRUE(server
                    .try_enqueue(static_cast<std::uint32_t>(i % cfg.hosts),
                                 mix.row_copy(i % mix.size()))
                    .accepted);
  }
  EXPECT_EQ(server.poll(), 9u);
  ServeStats stats = server.stats();
  EXPECT_EQ(stats.flush_full, 2u);
  EXPECT_EQ(stats.flush_drain, 1u);
  EXPECT_EQ(stats.batches, 3u);

  // A partial batch left to age under a background worker flushes as kWait.
  server.start();
  ASSERT_TRUE(server.try_enqueue(0, mix.row_copy(0)).accepted);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.stats().flush_wait == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.stop();
  EXPECT_GE(server.stats().flush_wait, 1u);
  EXPECT_EQ(server.stats().scored, 10u);
}

TEST_F(ServerFixture, BackgroundWorkersDrainEverythingOnStop) {
  core::DetectionRuntime runtime(*framework_, frozen_runtime_config());
  const ml::Dataset& mix = framework_->attacked_test_mix();

  // (hosts, shards): one ring, then 7 hosts over three rings.
  const std::pair<std::size_t, std::size_t> layouts[] = {{8, 1}, {7, 3}};
  for (const auto& [hosts, shards] : layouts) {
    SCOPED_TRACE(testing::Message() << hosts << " hosts, " << shards
                                    << " shards");
    ServeConfig cfg;
    cfg.hosts = hosts;
    cfg.shards = shards;
    cfg.ring_capacity = 4096;
    cfg.completion_capacity = 1024;
    cfg.max_batch = 32;
    DetectionServer server(runtime, mix.num_features(), cfg);

    server.start();
    EXPECT_TRUE(server.running());
    EXPECT_THROW(server.poll(), std::logic_error);

    const std::size_t n = 200;
    std::size_t accepted = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto res =
          server.try_enqueue(static_cast<std::uint32_t>(i % cfg.hosts),
                             mix.row_copy(i % mix.size()));
      accepted += res.accepted ? 1 : 0;
    }
    ASSERT_EQ(accepted, n);  // ring far larger than the burst
    server.stop();  // drains rings + staged rows before joining
    EXPECT_FALSE(server.running());

    const ServeStats stats = server.stats();
    EXPECT_EQ(stats.scored, n);
    EXPECT_EQ(stats.delivered, n);
    EXPECT_EQ(stats.queue_depth, 0u);

    std::size_t popped = 0;
    for (std::uint32_t host = 0; host < cfg.hosts; ++host) {
      VerdictRecord rec;
      while (server.try_pop_verdict(host, rec)) ++popped;
    }
    EXPECT_EQ(popped, n);
  }
}

TEST_F(ServerFixture, PublishesServeGaugesAndCounters) {
  core::DetectionRuntime runtime(*framework_, frozen_runtime_config());
  const ml::Dataset& mix = framework_->attacked_test_mix();

  ServeConfig cfg;
  cfg.hosts = 3;
  cfg.ring_capacity = 64;
  cfg.completion_capacity = 64;
  DetectionServer server(runtime, mix.num_features(), cfg);

  for (std::size_t i = 0; i < 12; ++i) {
    server.try_enqueue(static_cast<std::uint32_t>(i % cfg.hosts),
                       mix.row_copy(i % mix.size()));
  }
  // Gauges reflect pre-drain occupancy...
  server.publish_gauges();
  const obs::MetricsSnapshot staged = server.metrics().snapshot();
  const auto* depth = staged.find_gauge("drlhmd.serve.queue_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_DOUBLE_EQ(depth->value, 12.0);

  server.poll();
  server.publish_gauges();
  const obs::MetricsSnapshot snap = server.metrics().snapshot();
  EXPECT_DOUBLE_EQ(snap.find_gauge("drlhmd.serve.queue_depth")->value, 0.0);
  EXPECT_DOUBLE_EQ(snap.find_gauge("drlhmd.serve.dropped_total")->value, 0.0);
  EXPECT_DOUBLE_EQ(snap.find_gauge("drlhmd.serve.sessions")->value, 3.0);
  EXPECT_EQ(snap.find_counter("drlhmd.serve.enqueued")->value, 12u);
  EXPECT_EQ(snap.find_counter("drlhmd.serve.scored")->value, 12u);
  EXPECT_EQ(snap.find_counter("drlhmd.serve.delivered")->value, 12u);
  // The e2e tail recorder saw every verdict.
  const auto* e2e = snap.find_tail("drlhmd.serve.e2e_us");
  ASSERT_NE(e2e, nullptr);
  EXPECT_EQ(e2e->data.count, 12u);
}

TEST_F(ServerFixture, EnqueueValidatesHostAndWidth) {
  core::DetectionRuntime runtime(*framework_, frozen_runtime_config());
  const std::size_t cols = framework_->test_set().num_features();
  DetectionServer server(runtime, cols, ServeConfig{});
  const std::vector<double> narrow(cols - 1, 0.0);
  const std::vector<double> row(cols, 0.0);
  EXPECT_THROW(server.try_enqueue(999999, row), std::out_of_range);
  EXPECT_THROW(server.try_enqueue(0, narrow), std::invalid_argument);
  VerdictRecord rec;
  EXPECT_THROW(server.try_pop_verdict(999999, rec), std::out_of_range);
  EXPECT_THROW(server.session(999999), std::out_of_range);
}

}  // namespace
}  // namespace drlhmd::serve
