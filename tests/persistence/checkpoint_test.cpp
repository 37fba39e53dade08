// Framework checkpoint/resume and runtime cold start.
//
// The acceptance bar: resuming a checkpoint and running the remaining
// phases yields *bitwise identical* evaluate_scenarios() output versus the
// uninterrupted run, and a tampered checkpoint is refused at resume time.
#include "core/framework.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "core/runtime.hpp"
#include "util/artifact_store.hpp"

namespace drlhmd::core {
namespace {

FrameworkConfig small_config() {
  FrameworkConfig cfg;
  cfg.corpus.benign_apps = 60;
  cfg.corpus.malware_apps = 60;
  cfg.corpus.windows_per_app = 3;
  return cfg;
}

std::string fresh_dir(const std::string& leaf) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / leaf).string();
  std::filesystem::remove_all(dir);
  return dir;
}

/// Flatten scenario evaluations to bytes for bitwise comparison.
std::vector<std::uint8_t> evaluation_bytes(
    const std::vector<ScenarioEvaluation>& rows) {
  util::ByteWriter w;
  for (const auto& row : rows) {
    w.write_string(row.model);
    ml::write_metric_report(w, row.regular);
    ml::write_metric_report(w, row.adversarial);
    ml::write_metric_report(w, row.defended);
  }
  return w.take();
}

/// Shared fixture: one uninterrupted pipeline run + one saved checkpoint,
/// reused by every test in the suite (the pipeline is the expensive part).
class CheckpointSuite : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    framework_ = new Framework(small_config());
    framework_->run_all();
    // ctest runs each test of the suite in its own process, possibly in
    // parallel, so every process saves into its own directory.
    checkpoint_dir_ = new std::string(
        fresh_dir("ckpt-full-" + std::to_string(::getpid())));
    framework_->save_checkpoint(*checkpoint_dir_);
  }
  static void TearDownTestSuite() {
    delete framework_;
    framework_ = nullptr;
    std::filesystem::remove_all(*checkpoint_dir_);
    delete checkpoint_dir_;
    checkpoint_dir_ = nullptr;
  }

  static Framework* framework_;
  static std::string* checkpoint_dir_;
};

Framework* CheckpointSuite::framework_ = nullptr;
std::string* CheckpointSuite::checkpoint_dir_ = nullptr;

TEST_F(CheckpointSuite, AllPhasesMarkedDone) {
  for (std::size_t p = 0; p < kPhaseCount; ++p)
    EXPECT_TRUE(framework_->phase_done(static_cast<Phase>(p)))
        << phase_name(static_cast<Phase>(p));
}

TEST_F(CheckpointSuite, CheckpointContainsExpectedArtifacts) {
  const util::ArtifactStore store(*checkpoint_dir_);
  for (const char* name :
       {"manifest", "corpus", "preprocess", "dataset-train", "dataset-test",
        "predictor", "dataset-merged_train", "profiles", "controller-fast",
        "controller-small", "controller-best", "vault", "monitor"})
    EXPECT_TRUE(store.contains(name)) << name;
  // Six baseline + six defended model artifacts.
  std::size_t baseline = 0, defended = 0;
  for (const auto& name : store.list()) {
    baseline += name.rfind("model-baseline-", 0) == 0;
    defended += name.rfind("model-defended-", 0) == 0;
  }
  EXPECT_EQ(baseline, framework_->baseline_models().size());
  EXPECT_EQ(defended, framework_->defended_models().size());
}

TEST_F(CheckpointSuite, ResumeRestoresEveryPhaseBitwise) {
  Framework resumed = Framework::resume(*checkpoint_dir_);
  for (std::size_t p = 0; p < kPhaseCount; ++p)
    EXPECT_TRUE(resumed.phase_done(static_cast<Phase>(p)));

  // run_all() on a complete checkpoint re-runs nothing and the restored
  // state evaluates bitwise identically to the uninterrupted run.
  resumed.run_all();
  EXPECT_EQ(evaluation_bytes(resumed.evaluate_scenarios()),
            evaluation_bytes(framework_->evaluate_scenarios()));
  EXPECT_EQ(resumed.predictor().serialize(), framework_->predictor().serialize());
  for (std::size_t i = 0; i < framework_->defended_models().size(); ++i)
    EXPECT_EQ(resumed.defended_models()[i]->serialize(),
              framework_->defended_models()[i]->serialize());
  EXPECT_EQ(resumed.scaler().serialize(), framework_->scaler().serialize());
  EXPECT_EQ(resumed.selected_feature_names(),
            framework_->selected_feature_names());
  for (const rl::ConstraintPolicy policy :
       {rl::ConstraintPolicy::kFastInference, rl::ConstraintPolicy::kSmallMemory,
        rl::ConstraintPolicy::kBestDetection})
    EXPECT_EQ(resumed.controller(policy).serialize(),
              framework_->controller(policy).serialize());
}

TEST_F(CheckpointSuite, PartialCheckpointResumesAndMatchesUninterruptedRun) {
  // Interrupt after the attack phase: everything later must be recomputed
  // by resume + run_all, and the detectors' scenario metrics must be
  // bitwise identical to the uninterrupted fixture run.
  const std::string dir = fresh_dir("ckpt-partial");
  {
    Framework fw(small_config());
    fw.acquire_data();
    fw.engineer_features();
    fw.train_baselines();
    fw.generate_attacks();
    EXPECT_TRUE(fw.phase_done(Phase::kAttack));
    EXPECT_FALSE(fw.phase_done(Phase::kPredict));
    fw.save_checkpoint(dir);
  }

  Framework resumed = Framework::resume(dir);
  EXPECT_TRUE(resumed.phase_done(Phase::kAttack));
  EXPECT_FALSE(resumed.phase_done(Phase::kPredict));
  resumed.run_all();  // re-runs predict..protect only
  EXPECT_TRUE(resumed.phase_done(Phase::kProtect));

  EXPECT_EQ(evaluation_bytes(resumed.evaluate_scenarios()),
            evaluation_bytes(framework_->evaluate_scenarios()));
  EXPECT_EQ(resumed.predictor().serialize(), framework_->predictor().serialize());
  EXPECT_EQ(resumed.attack_report().success_rate,
            framework_->attack_report().success_rate);
}

TEST_F(CheckpointSuite, RerunningEarlierPhaseInvalidatesDownstream) {
  Framework resumed = Framework::resume(*checkpoint_dir_);
  EXPECT_TRUE(resumed.phase_done(Phase::kProtect));
  resumed.train_defenses();  // re-running phase 6 invalidates 7 and 8
  EXPECT_TRUE(resumed.phase_done(Phase::kDefend));
  EXPECT_FALSE(resumed.phase_done(Phase::kControl));
  EXPECT_FALSE(resumed.phase_done(Phase::kProtect));
}

TEST_F(CheckpointSuite, ColdStartServesTrafficFromCheckpoint) {
  ColdStart cold = cold_start(*checkpoint_dir_);
  ASSERT_NE(cold.framework, nullptr);
  ASSERT_NE(cold.runtime, nullptr);

  // The cold-started runtime scores the attacked stream exactly as a
  // runtime attached to the uninterrupted framework does.
  RuntimeConfig cfg;
  cfg.retrain_threshold = 0;
  cfg.integrity_check_period = 0;
  DetectionRuntime warm(*framework_, cfg);
  const ml::MetricReport warm_report =
      warm.process_stream(framework_->attacked_test_mix());
  const ml::MetricReport cold_report =
      cold.runtime->process_stream(cold.framework->attacked_test_mix());
  util::ByteWriter wa, wb;
  ml::write_metric_report(wa, warm_report);
  ml::write_metric_report(wb, cold_report);
  EXPECT_EQ(wa.bytes(), wb.bytes());
  EXPECT_TRUE(cold.runtime->validate_integrity());
}

TEST_F(CheckpointSuite, ColdStartRefusesIncompleteCheckpoint) {
  const std::string dir = fresh_dir("ckpt-incomplete");
  Framework fw(small_config());
  fw.acquire_data();
  fw.save_checkpoint(dir);
  EXPECT_THROW(cold_start(dir), std::runtime_error);
}

TEST_F(CheckpointSuite, TamperedModelArtifactRefusedAtResume) {
  // Copy the good checkpoint, then swap a defended model's payload for the
  // corresponding *baseline* model's bytes.  The envelope is re-wrapped, so
  // its CRC is valid — only the vault's SHA-256 digest can catch it.
  const std::string dir = fresh_dir("ckpt-tampered");
  std::filesystem::copy(*checkpoint_dir_, dir);
  const util::ArtifactStore store(dir);
  std::string victim;
  for (const auto& name : store.list())
    if (name.rfind("model-defended-", 0) == 0) { victim = name; break; }
  ASSERT_FALSE(victim.empty());
  const util::Artifact art = store.get(victim);
  store.put(victim, art.kind, art.version,
            framework_->baseline_models().front()->serialize());

  try {
    Framework resumed = Framework::resume(dir);
    FAIL() << "tampered checkpoint was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("tampered"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(cold_start(dir), std::runtime_error);
}

TEST_F(CheckpointSuite, BitRotRefusedAtResume) {
  // Flip one byte in a dataset artifact on disk: the envelope CRC fails.
  const std::string dir = fresh_dir("ckpt-bitrot");
  std::filesystem::copy(*checkpoint_dir_, dir);
  const util::ArtifactStore store(dir);
  const std::string path = store.path_for("dataset-train");
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekp(-20, std::ios::end);
  char byte = 0;
  f.read(&byte, 1);
  f.seekp(-20, std::ios::end);
  byte = static_cast<char>(byte ^ 0x10);
  f.write(&byte, 1);
  f.close();

  EXPECT_ANY_THROW(Framework::resume(dir));
}

TEST_F(CheckpointSuite, ResumeRejectsMissingManifest) {
  const std::string dir = fresh_dir("ckpt-empty");
  const util::ArtifactStore store(dir);  // creates the empty directory
  EXPECT_THROW(Framework::resume(dir), std::runtime_error);
}

TEST_F(CheckpointSuite, SaveIsIdempotent) {
  // Saving the same framework twice produces an identical artifact set.
  const std::string dir = fresh_dir("ckpt-again");
  framework_->save_checkpoint(dir);
  const util::ArtifactStore a(*checkpoint_dir_), b(dir);
  ASSERT_EQ(a.list(), b.list());
  for (const auto& name : a.list()) {
    const util::Artifact aa = a.get(name), bb = b.get(name);
    EXPECT_EQ(aa.kind, bb.kind) << name;
    EXPECT_EQ(aa.payload, bb.payload) << name;
  }
}

}  // namespace
}  // namespace drlhmd::core
