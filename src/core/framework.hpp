// End-to-end adversarial-resilient HMD framework (paper Figure 1).
//
// Orchestrates the full multi-phase pipeline:
//   1. acquire  — simulate the application corpus, collect HPC windows
//   2. engineer — clean, standard-scale, MI-select the top-k HPC features
//   3. baseline — train the six detectors on legitimate malware/benign data
//   4. attack   — generate LowProFool adversarial malware (train & test pools)
//   5. predict  — train the A2C adversarial predictor on unlabeled data
//   6. defend   — adversarial training: retrain detectors on the merged DB
//   7. control  — train the three UCB constraint-aware agents
//   8. protect  — vault deployed models (SHA-256) + metric baselines
//
// Each phase is callable on its own (phases check their prerequisites), or
// run_all() executes the whole pipeline.
#pragma once

#include <map>
#include <memory>
#include <optional>

#include "adversarial/lowprofool.hpp"
#include "integrity/metric_monitor.hpp"
#include "integrity/model_vault.hpp"
#include "ml/model_zoo.hpp"
#include "ml/preprocess.hpp"
#include "rl/adversarial_predictor.hpp"
#include "rl/constraint_controller.hpp"
#include "sim/corpus_shard.hpp"
#include "sim/dataset_builder.hpp"

namespace drlhmd::core {

enum class FeatureSelectionMode : std::uint8_t {
  /// Use the four HPC events the paper reports as its MI-selected feature
  /// set (LLC-load-misses, LLC-loads, cache-misses, cache-references), so
  /// the detection problem is identical to the paper's.  The MI ranking of
  /// the synthetic corpus is still computed and can be inspected.
  kPaperFeatures = 0,
  /// Select the top-k features of the synthetic corpus by mutual
  /// information (the paper's procedure applied to our data).
  kMutualInfo,
};

struct FrameworkConfig {
  sim::CorpusConfig corpus{};
  /// Fleet mode (enabled when fleet.out_dir is non-empty): acquire builds a
  /// sharded out-of-core corpus under fleet.out_dir across heterogeneous
  /// machine profiles instead of one in-RAM corpus, and engineer streams
  /// feature selection over the mmap-backed shards, materializing only the
  /// selected top-k columns.
  sim::FleetConfig fleet{};
  FeatureSelectionMode feature_mode = FeatureSelectionMode::kPaperFeatures;
  std::size_t top_k_features = 4;      // paper: top four HPCs by MI
  std::size_t mi_bins = 16;
  adversarial::LowProFoolConfig attack{};
  rl::AdversarialPredictorConfig predictor{};
  rl::ConstraintControllerConfig controller{};  // policy overridden per agent
  std::size_t controller_epochs = 6;
  double metric_tolerance = 0.05;
  std::uint64_t seed = 2024;
};

/// Per-model metrics across the paper's three scenarios (Table 2 rows).
struct ScenarioEvaluation {
  std::string model;
  ml::MetricReport regular;      // (a) malware attack, no adversary
  ml::MetricReport adversarial;  // (b) under adversarial attack
  ml::MetricReport defended;     // (c) after adversarial training
};

/// The eight pipeline phases, in run_all() order.  Each phase's outputs are
/// persistable as named artifacts; a checkpoint records which phases have
/// completed so resume() re-runs only the rest.
enum class Phase : std::uint8_t {
  kAcquire = 0,
  kEngineer,
  kBaseline,
  kAttack,
  kPredict,
  kDefend,
  kControl,
  kProtect,
};
inline constexpr std::size_t kPhaseCount = 8;
const char* phase_name(Phase phase);

class Framework {
 public:
  explicit Framework(FrameworkConfig config = {});

  // -- Phases ------------------------------------------------------------
  void acquire_data();
  void engineer_features();
  void train_baselines();
  void generate_attacks();
  void train_predictor();
  void train_defenses();
  void train_controllers();
  void protect_models(std::uint64_t deploy_timestamp = 20240623);

  /// Run phases 1-8 in order, skipping any already completed (e.g. after
  /// resume() from a partial checkpoint).
  void run_all();

  // -- Checkpointing -----------------------------------------------------
  /// True once the phase has completed (and no earlier phase has been
  /// re-run since — re-running a phase invalidates everything downstream).
  bool phase_done(Phase phase) const;

  /// Persist the config, phase-completion state and every completed
  /// phase's outputs as artifacts under `dir` (created if missing).
  void save_checkpoint(const std::string& dir) const;

  /// Reconstruct a framework from a checkpoint directory.  Completed
  /// phases are restored from artifacts; run_all() then re-runs only the
  /// remaining ones.  If the protect phase had completed, every defended
  /// model is re-verified against its vaulted SHA-256 digest before use —
  /// a mismatch throws std::runtime_error (tampered checkpoint).
  static Framework resume(const std::string& dir);

  /// Adaptive defense update (run-time loop): fold freshly quarantined
  /// adversarial samples (label 1) into the merged database, retrain the
  /// defended models, refresh profiles, controllers, vault records and
  /// metric baselines.  Requires train_defenses to have run.
  void incremental_defense_update(const ml::Dataset& new_adversarial);

  // -- Evaluation --------------------------------------------------------
  /// Table 2: each detector under the three scenarios.
  std::vector<ScenarioEvaluation> evaluate_scenarios() const;

  /// Adversarial predictor quality (paper: 100% across the board).
  ml::MetricReport evaluate_predictor() const;

  /// Figure 3(b): critic feedback-reward trace over a stream of
  /// adversarial-then-legitimate samples.
  std::vector<double> predictor_reward_trace() const;

  /// LowProFool campaign statistics on the test malware pool.
  adversarial::AttackCampaignReport attack_report() const;

  // -- Accessors ---------------------------------------------------------
  const FrameworkConfig& config() const { return config_; }
  /// True when the pipeline runs against a sharded on-disk corpus.
  bool fleet_mode() const { return !config_.fleet.out_dir.empty(); }
  const sim::HpcCorpus& corpus() const;
  const ml::Dataset& train_set() const;       // engineered top-k space
  const ml::Dataset& val_set() const;
  const ml::Dataset& test_set() const;
  const ml::Dataset& adversarial_train() const;  // attacked train malware
  const ml::Dataset& adversarial_test() const;   // attacked test malware
  const ml::Dataset& merged_train() const;       // defense DB
  /// Test mixture for scenarios (b)/(c): benign + adversarial malware.
  const ml::Dataset& attacked_test_mix() const;
  /// Validation mixture used for profiling defended models (benign +
  /// legitimate malware + adversarial malware from the validation split).
  const ml::Dataset& defense_val_mix() const;
  const std::vector<std::string>& selected_feature_names() const;
  const std::vector<std::size_t>& selected_feature_indices() const;
  const ml::StandardScaler& scaler() const { return scaler_; }

  const std::vector<std::unique_ptr<ml::Classifier>>& baseline_models() const;
  const std::vector<std::unique_ptr<ml::Classifier>>& defended_models() const;
  const rl::AdversarialPredictor& predictor() const;
  const rl::ConstraintController& controller(rl::ConstraintPolicy policy) const;
  const std::vector<rl::ModelProfile>& defended_profiles() const;
  integrity::ModelVault& vault() { return vault_; }
  const integrity::ModelVault& vault() const { return vault_; }
  integrity::MetricMonitor& metric_monitor() { return monitor_; }

 private:
  void require(bool condition, const char* message) const;
  /// Mark `phase` complete and invalidate all downstream phases.
  void mark_phase(Phase phase);
  /// Fleet-mode engineer: streamed selection over the shard directory,
  /// then materialize only the selected top-k columns.
  void engineer_features_fleet();

  FrameworkConfig config_;
  std::uint32_t completed_phases_ = 0;  // bit i == Phase i done

  std::optional<sim::HpcCorpus> corpus_;

  ml::StandardScaler scaler_;
  std::vector<std::size_t> feature_indices_;
  std::vector<std::string> feature_names_;
  ml::Dataset train_, val_, test_;
  ml::FeatureBounds bounds_;

  std::vector<std::unique_ptr<ml::Classifier>> baseline_models_;
  std::unique_ptr<ml::LogisticRegression> surrogate_;
  std::unique_ptr<adversarial::LowProFool> attacker_;
  ml::Dataset adversarial_train_, adversarial_val_, adversarial_test_;
  ml::Dataset attacked_test_mix_;
  ml::Dataset defense_val_mix_;
  ml::Dataset merged_train_;

  std::unique_ptr<rl::AdversarialPredictor> predictor_;
  std::vector<std::unique_ptr<ml::Classifier>> defended_models_;
  std::vector<rl::ModelProfile> defended_profiles_;
  std::map<rl::ConstraintPolicy, std::unique_ptr<rl::ConstraintController>> controllers_;

  integrity::ModelVault vault_;
  integrity::MetricMonitor monitor_;
};

}  // namespace drlhmd::core
