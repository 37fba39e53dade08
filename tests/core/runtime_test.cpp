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

/// Verdict counts of a stream, in BatchOutcome's shape.
BatchOutcome count_verdicts(const std::vector<TrafficVerdict>& verdicts) {
  BatchOutcome counts;
  for (const TrafficVerdict v : verdicts) {
    counts.benign += v == TrafficVerdict::kBenign ? 1 : 0;
    counts.malware += v == TrafficVerdict::kMalware ? 1 : 0;
    counts.adversarial += v == TrafficVerdict::kAdversarialMalware ? 1 : 0;
  }
  return counts;
}

TEST_F(RuntimeFixture, BatchVerdictsMatchSequentialProcess) {
  const auto& mix = framework_->attacked_test_mix();
  RuntimeConfig cfg;
  cfg.retrain_threshold = 0;  // frozen models, so the row oracle holds
  // Independent oracle: the deployed models' own row APIs, in the order the
  // paper's loop applies them (predictor first, then the routed detector).
  const auto& predictor = framework_->predictor();
  const auto& controller = framework_->controller(cfg.policy);
  std::vector<TrafficVerdict> expected;
  expected.reserve(mix.size());
  for (const auto& row : mix.rows_copy()) {
    if (predictor.is_adversarial(row)) {
      expected.push_back(TrafficVerdict::kAdversarialMalware);
    } else {
      expected.push_back(controller.predict(row) == 1 ? TrafficVerdict::kMalware
                                                      : TrafficVerdict::kBenign);
    }
  }
  const BatchOutcome want = count_verdicts(expected);

  DetectionRuntime batched(*framework_, cfg);
  const std::vector<TrafficVerdict> got = batched.process_batch(mix.X.view());
  EXPECT_EQ(got, expected);
  EXPECT_EQ(batched.stats().processed, mix.size());
  EXPECT_EQ(batched.stats().adversarial, want.adversarial);
  EXPECT_EQ(batched.stats().malware, want.malware);
  EXPECT_EQ(batched.stats().benign, want.benign);

  // process() row by row is the same body over one-row batches.
  DetectionRuntime sequential(*framework_, cfg);
  std::vector<TrafficVerdict> rowwise;
  rowwise.reserve(mix.size());
  for (const auto& row : mix.rows_copy()) rowwise.push_back(sequential.process(row));
  EXPECT_EQ(rowwise, got);
  EXPECT_EQ(sequential.stats().processed, batched.stats().processed);
  EXPECT_EQ(sequential.stats().adversarial, batched.stats().adversarial);
  EXPECT_EQ(sequential.stats().malware, batched.stats().malware);
  EXPECT_EQ(sequential.stats().benign, batched.stats().benign);
  EXPECT_EQ(sequential.stats().integrity_checks, batched.stats().integrity_checks);
  EXPECT_EQ(sequential.quarantine_size(), batched.quarantine_size());
}

TEST_F(RuntimeFixture, BatchTallyReportsPerBatchVerdictDeltas) {
  const auto& mix = framework_->attacked_test_mix();
  DetectionRuntime runtime(*framework_);
  const std::size_t n = std::min<std::size_t>(mix.size(), 32);
  std::vector<TrafficVerdict> verdicts(n);
  const BatchOutcome outcome =
      runtime.process_batch(mix.X.view().rows_slice(0, n),
                            std::span<TrafficVerdict>(verdicts));
  // The commit loop counts each row it commits, so the outcome must agree
  // exactly with the verdicts written into the span.
  const BatchOutcome want = count_verdicts(verdicts);
  EXPECT_EQ(outcome.benign, want.benign);
  EXPECT_EQ(outcome.malware, want.malware);
  EXPECT_EQ(outcome.adversarial, want.adversarial);
  EXPECT_EQ(outcome.retrains, 0u);
  EXPECT_EQ(outcome.benign + outcome.malware + outcome.adversarial, n);

  // A second batch tallies only its own rows, not the running totals.
  const BatchOutcome again =
      runtime.process_batch(mix.X.view().rows_slice(0, n),
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

  // Each process() is a one-row batch scored as one chunk: one batch tail
  // and one predictor and detector stage sample per row.
  const obs::MetricsSnapshot snap = runtime.metrics().snapshot();
  const auto* batch = snap.find_tail("drlhmd.runtime.batch_tail_us");
  const auto* predictor =
      snap.find_tail("drlhmd.runtime.stage_tail_us", {{"stage", "predictor"}});
  const auto* detector =
      snap.find_tail("drlhmd.runtime.stage_tail_us", {{"stage", "detector"}});
  ASSERT_NE(batch, nullptr);
  ASSERT_NE(predictor, nullptr);
  ASSERT_NE(detector, nullptr);
  EXPECT_EQ(batch->data.count, n);
  EXPECT_EQ(predictor->data.count, n);
  EXPECT_EQ(detector->data.count, n);
  EXPECT_LE(batch->data.p50, batch->data.p99);
  EXPECT_LE(batch->data.p99, batch->data.p999);
  EXPECT_GT(batch->data.max, 0.0);
  // The batch tail is the whole-call time; there is no separate total.
  EXPECT_EQ(snap.find_tail("drlhmd.runtime.stage_tail_us", {{"stage", "total"}}),
            nullptr);

  // With telemetry off, further samples bump counters but not tails.
  runtime.process(mix.row_copy(0));
  const auto after = runtime.metrics().snapshot();
  EXPECT_EQ(after.find_tail("drlhmd.runtime.batch_tail_us")->data.count, n);
  EXPECT_EQ(after.find_tail("drlhmd.runtime.stage_tail_us", {{"stage", "predictor"}})
                ->data.count,
            n);
  EXPECT_EQ(after.find_counter("drlhmd.runtime.processed")->value, n + 1);
}

TEST(RuntimeRetrainTest, MidBatchRetrainMatchesRowByRowProcess) {
  // Two identical small pipelines: a retrain refits its framework's models.
  FrameworkConfig cfg;
  cfg.corpus.benign_apps = 30;
  cfg.corpus.malware_apps = 30;
  cfg.corpus.windows_per_app = 3;
  Framework batch_fw(cfg);
  batch_fw.run_all();
  Framework row_fw(cfg);
  row_fw.run_all();
  const auto serialized = [](const Framework& fw) {
    std::vector<std::vector<std::uint8_t>> bytes;
    for (const auto& model : fw.defended_models()) bytes.push_back(model->serialize());
    return bytes;
  };
  ASSERT_EQ(serialized(batch_fw), serialized(row_fw));

  // Agent 2 routes on model size, not measured latency, so both runtimes
  // route identically after every retrain.
  RuntimeConfig rcfg;
  rcfg.retrain_threshold = 10;
  rcfg.integrity_check_period = 7;
  rcfg.policy = rl::ConstraintPolicy::kSmallMemory;

  // Adversarial rows interleaved with clean ones, so retrains fire with rows
  // still pending in the batch.
  const ml::Dataset& adv = batch_fw.adversarial_test();
  const ml::Dataset& clean = batch_fw.test_set();
  ml::Dataset rows;
  for (std::size_t i = 0; i < std::max(adv.size(), clean.size()); ++i) {
    if (i < clean.size()) rows.push(clean.row_copy(i), clean.y[i]);
    if (i < adv.size()) rows.push(adv.row_copy(i), 1);
  }
  // Then pairs of rows straddling the served detector's decision boundary,
  // found by bisecting the segment from a benign to a malware test row; the
  // label is the deployed detector's verdict.  Clean rows sit far from the
  // boundary, so a refit leaves their verdicts alone, but it moves the
  // boundary past some of these rows: they are what tells re-scored
  // verdicts from stale pre-retrain ones.
  const rl::ConstraintController& detector = batch_fw.controller(rcfg.policy);
  std::vector<std::vector<double>> benign, malware;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    std::vector<double> row = clean.row_copy(i);
    if (detector.predict(row) == clean.y[i])
      (clean.y[i] == 1 ? malware : benign).push_back(std::move(row));
  }
  ASSERT_FALSE(benign.empty());
  ASSERT_FALSE(malware.empty());
  const std::size_t first_straddle = rows.size();
  for (std::size_t k = 0; k < 8; ++k) {
    const std::vector<double>& b = benign[k % benign.size()];
    const std::vector<double>& m = malware[k % malware.size()];
    const auto at = [&](double t) {
      std::vector<double> point(b.size());
      for (std::size_t c = 0; c < point.size(); ++c) point[c] = b[c] + t * (m[c] - b[c]);
      return point;
    };
    double lo = 0.0, hi = 1.0;
    for (int step = 0; step < 60; ++step) {
      const double mid = 0.5 * (lo + hi);
      (detector.predict(at(mid)) == 1 ? hi : lo) = mid;
    }
    rows.push(at(lo), 0);
    rows.push(at(hi), 1);
  }

  DetectionRuntime batched(batch_fw, rcfg);
  std::vector<TrafficVerdict> got(rows.size());
  const BatchOutcome outcome = batched.process_batch(rows.X.view(), got);

  DetectionRuntime sequential(row_fw, rcfg);
  std::vector<TrafficVerdict> want;
  want.reserve(rows.size());
  for (const auto& row : rows.rows_copy()) want.push_back(sequential.process(row));

  // The first retrain fires at the threshold-th flagged row, with rows left
  // to re-score against the refit models.
  ASSERT_GE(outcome.retrains, 1u);
  std::size_t flagged = 0, first_retrain_row = rows.size();
  for (std::size_t i = 0; i < got.size() && first_retrain_row == rows.size(); ++i)
    if (got[i] == TrafficVerdict::kAdversarialMalware &&
        ++flagged == rcfg.retrain_threshold)
      first_retrain_row = i;
  EXPECT_LT(first_retrain_row + 1, rows.size());
  // The refit moved the boundary: some straddling row no longer gets the
  // verdict the models deployed before the retrain gave it.
  std::size_t moved = 0;
  for (std::size_t i = first_straddle; i < rows.size(); ++i)
    if (got[i] != TrafficVerdict::kAdversarialMalware)
      moved += (got[i] == TrafficVerdict::kMalware ? 1 : 0) != rows.y[i] ? 1 : 0;
  EXPECT_GT(moved, 0u);

  EXPECT_EQ(got, want);
  const RuntimeStats b = batched.stats();
  const RuntimeStats s = sequential.stats();
  EXPECT_EQ(b.processed, s.processed);
  EXPECT_EQ(b.benign, s.benign);
  EXPECT_EQ(b.malware, s.malware);
  EXPECT_EQ(b.adversarial, s.adversarial);
  EXPECT_EQ(b.retrains, s.retrains);
  EXPECT_EQ(b.integrity_checks, s.integrity_checks);
  EXPECT_EQ(b.integrity_alarms, 0u);
  EXPECT_EQ(s.integrity_alarms, 0u);
  EXPECT_EQ(batched.quarantine_size(), sequential.quarantine_size());

  const BatchOutcome counted = count_verdicts(got);
  EXPECT_EQ(outcome.benign, counted.benign);
  EXPECT_EQ(outcome.malware, counted.malware);
  EXPECT_EQ(outcome.adversarial, counted.adversarial);
  EXPECT_EQ(outcome.retrains, b.retrains);

  EXPECT_EQ(serialized(batch_fw), serialized(row_fw));
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
