#include "core/runtime.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "obs/telemetry.hpp"

namespace drlhmd::core {
namespace {

FrameworkConfig runtime_config() {
  FrameworkConfig cfg;
  cfg.corpus.benign_apps = 80;
  cfg.corpus.malware_apps = 80;
  cfg.corpus.windows_per_app = 4;
  return cfg;
}

/// Expensive pipeline shared across the suite.
class RuntimeFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    framework_ = new Framework(runtime_config());
    framework_->run_all();
  }
  static void TearDownTestSuite() {
    delete framework_;
    framework_ = nullptr;
  }
  static Framework* framework_;
};

Framework* RuntimeFixture::framework_ = nullptr;

TEST(RuntimeConstructionTest, RequiresTrainedPipeline) {
  Framework fresh(runtime_config());
  EXPECT_THROW(DetectionRuntime{fresh}, std::logic_error);
}

TEST(VerdictNameTest, AllNamed) {
  EXPECT_EQ(verdict_name(TrafficVerdict::kBenign), "benign");
  EXPECT_EQ(verdict_name(TrafficVerdict::kMalware), "malware");
  EXPECT_EQ(verdict_name(TrafficVerdict::kAdversarialMalware),
            "adversarial-malware");
  EXPECT_EQ(verdict_name(TrafficVerdict::kDropped), "dropped");
}

TEST_F(RuntimeFixture, FlagsAdversarialTraffic) {
  DetectionRuntime runtime(*framework_);
  std::size_t flagged = 0;
  const auto& adv = framework_->adversarial_test();
  for (const auto& row : adv.rows_copy())
    flagged += runtime.process(row) == TrafficVerdict::kAdversarialMalware ? 1 : 0;
  EXPECT_GT(static_cast<double>(flagged) / static_cast<double>(adv.size()), 0.9);
  EXPECT_EQ(runtime.stats().adversarial, flagged);
  EXPECT_EQ(runtime.quarantine_size(), flagged);
}

TEST_F(RuntimeFixture, RoutesLegitimateTrafficToDetectors) {
  DetectionRuntime runtime(*framework_);
  const auto& test = framework_->test_set();
  std::size_t correct = 0, routed = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    const TrafficVerdict v = runtime.process(test.row_copy(i));
    if (v == TrafficVerdict::kAdversarialMalware) continue;  // predictor FP
    ++routed;
    const int pred = v == TrafficVerdict::kMalware ? 1 : 0;
    correct += pred == test.y[i] ? 1 : 0;
  }
  ASSERT_GT(routed, test.size() / 2);
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(routed), 0.8);
}

TEST_F(RuntimeFixture, ProcessStreamReportsMetrics) {
  DetectionRuntime runtime(*framework_);
  const auto m = runtime.process_stream(framework_->attacked_test_mix());
  // Adversarial verdicts count as malware: detection on the attacked mix
  // should be strong (predictor + defended models).
  EXPECT_GT(m.f1, 0.85);
  EXPECT_EQ(runtime.stats().processed, framework_->attacked_test_mix().size());
}

TEST_F(RuntimeFixture, BatchVerdictsMatchSequentialProcess) {
  const auto& mix = framework_->attacked_test_mix();
  DetectionRuntime sequential(*framework_);
  std::vector<TrafficVerdict> expected;
  expected.reserve(mix.size());
  for (const auto& row : mix.rows_copy()) expected.push_back(sequential.process(row));

  DetectionRuntime batched(*framework_);
  const std::vector<TrafficVerdict> got = batched.process_batch(mix.X.view());
  EXPECT_EQ(got, expected);
  EXPECT_EQ(batched.stats().processed, sequential.stats().processed);
  EXPECT_EQ(batched.stats().adversarial, sequential.stats().adversarial);
  EXPECT_EQ(batched.stats().malware, sequential.stats().malware);
  EXPECT_EQ(batched.stats().benign, sequential.stats().benign);
}

TEST_F(RuntimeFixture, BatchTallyReportsPerBatchVerdictDeltas) {
  const auto& mix = framework_->attacked_test_mix();
  DetectionRuntime runtime(*framework_);
  const std::size_t n = std::min<std::size_t>(mix.size(), 32);
  std::vector<TrafficVerdict> verdicts(n);
  const BatchOutcome outcome =
      runtime.process_batch_tally(mix.X.view().rows_slice(0, n),
                                  std::span<TrafficVerdict>(verdicts));
  // The tally is the per-batch delta of the registry counters, so it must
  // agree exactly with the verdicts written into the span.
  std::size_t benign = 0, malware = 0, adversarial = 0;
  for (const TrafficVerdict v : verdicts) {
    benign += v == TrafficVerdict::kBenign ? 1 : 0;
    malware += v == TrafficVerdict::kMalware ? 1 : 0;
    adversarial += v == TrafficVerdict::kAdversarialMalware ? 1 : 0;
  }
  EXPECT_EQ(outcome.benign, benign);
  EXPECT_EQ(outcome.malware, malware);
  EXPECT_EQ(outcome.adversarial, adversarial);
  EXPECT_EQ(outcome.benign + outcome.malware + outcome.adversarial, n);

  // A second batch tallies only its own rows, not the running totals.
  const BatchOutcome again =
      runtime.process_batch_tally(mix.X.view().rows_slice(0, n),
                                  std::span<TrafficVerdict>(verdicts));
  EXPECT_EQ(again.benign + again.malware + again.adversarial, n);
  EXPECT_EQ(runtime.stats().processed, 2 * n);
}

TEST_F(RuntimeFixture, IntegrityValidationPasses) {
  DetectionRuntime runtime(*framework_);
  EXPECT_TRUE(runtime.validate_integrity());
  EXPECT_EQ(runtime.stats().integrity_checks, 1u);
  EXPECT_EQ(runtime.stats().integrity_alarms, 0u);
}

TEST(RuntimeIntegrityTest, RefitModelRaisesOneAlarm) {
  // Its own small pipeline: the refit below would poison the shared fixture.
  FrameworkConfig cfg;
  cfg.corpus.benign_apps = 30;
  cfg.corpus.malware_apps = 30;
  cfg.corpus.windows_per_app = 3;
  Framework framework(cfg);
  framework.run_all();
  DetectionRuntime runtime(framework);

  // Refit on other rows: the model's bytes no longer hash to its vault record.
  framework.defended_models().front()->fit(framework.test_set());
  EXPECT_FALSE(runtime.validate_integrity());
  EXPECT_EQ(runtime.stats().integrity_alarms, 1u);
  EXPECT_EQ(runtime.stats().integrity_checks, 1u);
}

TEST_F(RuntimeFixture, PeriodicIntegrityChecksFire) {
  RuntimeConfig cfg;
  cfg.integrity_check_period = 10;
  cfg.retrain_threshold = 0;
  DetectionRuntime runtime(*framework_, cfg);
  const auto& test = framework_->test_set();
  for (std::size_t i = 0; i < 35 && i < test.size(); ++i)
    runtime.process(test.row_copy(i));
  EXPECT_GE(runtime.stats().integrity_checks, 3u);
}

TEST_F(RuntimeFixture, AdaptiveRetrainingTriggersAndResetsQuarantine) {
  RuntimeConfig cfg;
  cfg.retrain_threshold = 25;
  cfg.integrity_check_period = 0;
  DetectionRuntime runtime(*framework_, cfg);
  const auto& adv = framework_->adversarial_test();
  for (std::size_t i = 0; i < 30 && i < adv.size(); ++i)
    runtime.process(adv.row_copy(i));
  EXPECT_GE(runtime.stats().retrains, 1u);
  EXPECT_LT(runtime.quarantine_size(), 25u);
  // After the retrain the defended models stay functional and vaulted.
  EXPECT_TRUE(runtime.validate_integrity());
}

TEST_F(RuntimeFixture, StatsViewMatchesRegistryCounters) {
  DetectionRuntime runtime(*framework_);
  runtime.process_stream(framework_->attacked_test_mix());
  runtime.validate_integrity();

  const RuntimeStats stats = runtime.stats();
  const obs::MetricsSnapshot snap = runtime.metrics().snapshot();
  const auto counter = [&snap](const char* name, const obs::Labels& labels) {
    const auto* sample = snap.find_counter(name, labels);
    return sample != nullptr ? sample->value : std::uint64_t{0};
  };
  EXPECT_EQ(counter("drlhmd.runtime.processed", {}), stats.processed);
  EXPECT_EQ(counter("drlhmd.runtime.verdicts", {{"verdict", "benign"}}),
            stats.benign);
  EXPECT_EQ(counter("drlhmd.runtime.verdicts", {{"verdict", "malware"}}),
            stats.malware);
  EXPECT_EQ(counter("drlhmd.runtime.verdicts", {{"verdict", "adversarial"}}),
            stats.adversarial);
  EXPECT_EQ(counter("drlhmd.runtime.integrity.checks", {}),
            stats.integrity_checks);
  EXPECT_EQ(counter("drlhmd.runtime.retrains", {}), stats.retrains);
  // Every processed sample got exactly one verdict.
  EXPECT_EQ(stats.benign + stats.malware + stats.adversarial, stats.processed);
  // Quarantine size is surfaced as a gauge off the same registry.
  const auto* quarantine = snap.find_gauge("drlhmd.runtime.quarantine_size");
  ASSERT_NE(quarantine, nullptr);
  EXPECT_DOUBLE_EQ(quarantine->value,
                   static_cast<double>(runtime.quarantine_size()));
}

TEST_F(RuntimeFixture, StageLatencyHistogramsRecordWhenTelemetryEnabled) {
  obs::Telemetry::set_enabled(true);
  DetectionRuntime runtime(*framework_);
  const auto& mix = framework_->attacked_test_mix();
  const std::size_t n = std::min<std::size_t>(mix.size(), 40);
  for (std::size_t i = 0; i < n; ++i) runtime.process(mix.row_copy(i));
  obs::Telemetry::set_enabled(false);

  const obs::MetricsSnapshot snap = runtime.metrics().snapshot();
  const auto* total = snap.find_histogram("drlhmd.runtime.stage_latency_us",
                                          {{"stage", "total"}});
  const auto* predictor = snap.find_histogram("drlhmd.runtime.stage_latency_us",
                                              {{"stage", "predictor"}});
  ASSERT_NE(total, nullptr);
  ASSERT_NE(predictor, nullptr);
  EXPECT_EQ(total->data.count, n);
  EXPECT_EQ(predictor->data.count, n);
  EXPECT_LE(total->data.p50, total->data.p95);
  EXPECT_LE(total->data.p95, total->data.p99);
  EXPECT_GT(total->data.max, 0.0);

  // With telemetry off, further samples bump counters but not histograms.
  runtime.process(mix.row_copy(0));
  const auto after = runtime.metrics().snapshot();
  EXPECT_EQ(after.find_histogram("drlhmd.runtime.stage_latency_us",
                                 {{"stage", "total"}})
                ->data.count,
            n);
  EXPECT_EQ(after.find_counter("drlhmd.runtime.processed")->value, n + 1);
}

TEST_F(RuntimeFixture, IncrementalUpdateRejectsBenignLabels) {
  ml::Dataset bogus;
  bogus.push({0.0, 0.0, 0.0, 0.0}, 0);
  EXPECT_THROW(framework_->incremental_defense_update(bogus),
               std::invalid_argument);
  // Empty update is a no-op.
  EXPECT_NO_THROW(framework_->incremental_defense_update(ml::Dataset{}));
}

}  // namespace
}  // namespace drlhmd::core
