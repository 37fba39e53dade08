#include "core/framework.hpp"

#include <stdexcept>

#include "ml/data_source.hpp"
#include "ml/mutual_info.hpp"
#include "ml/sharded_dataset.hpp"
#include "obs/log.hpp"
#include "obs/telemetry.hpp"
#include "util/timer.hpp"

namespace drlhmd::core {
namespace {

/// Subset of a dataset by label.
ml::Dataset rows_with_label(const ml::Dataset& data, int label) {
  ml::Dataset out;
  out.feature_names = data.feature_names;
  for (std::size_t i = 0; i < data.size(); ++i)
    if (data.y[i] == label) out.push_from(data, i);
  return out;
}

/// Publish the completed phase's duration as a gauge; spans carry the same
/// timing hierarchically in the trace.
void finish_phase(const char* phase, const util::Timer& timer) {
  if (!obs::Telemetry::enabled()) return;
  obs::Telemetry::metrics()
      .gauge("drlhmd.pipeline.phase_seconds", {{"phase", phase}})
      .set(timer.elapsed_seconds());
  DRLHMD_LOG(Debug) << "pipeline phase '" << phase << "' finished in "
                    << timer.elapsed_ms() << " ms";
}

void set_size_gauge(const char* split, std::size_t size) {
  if (!obs::Telemetry::enabled()) return;
  obs::Telemetry::metrics()
      .gauge("drlhmd.pipeline.dataset_size", {{"split", split}})
      .set(static_cast<double>(size));
}

/// drlhmd.corpus.* fleet-build telemetry: shard progress, build throughput
/// and the per-machine-profile row mix.
void publish_corpus_stats(const sim::ShardBuildStats& stats) {
  if (!obs::Telemetry::enabled()) return;
  auto& reg = obs::Telemetry::metrics();
  reg.counter("drlhmd.corpus.shards_built").inc(stats.shards_built);
  reg.gauge("drlhmd.corpus.shards_total").set(static_cast<double>(stats.shards_total));
  reg.gauge("drlhmd.corpus.shards_resumed").set(static_cast<double>(stats.shards_resumed));
  reg.gauge("drlhmd.corpus.rows").set(static_cast<double>(stats.rows));
  if (stats.build_seconds > 0.0)
    reg.gauge("drlhmd.corpus.rows_per_sec")
        .set(static_cast<double>(stats.rows) / stats.build_seconds);
  for (const auto& [profile, rows] : stats.rows_per_profile)
    reg.gauge("drlhmd.corpus.profile_rows", {{"profile", profile}})
        .set(static_cast<double>(rows));
}

}  // namespace

const char* phase_name(Phase phase) {
  switch (phase) {
    case Phase::kAcquire: return "acquire";
    case Phase::kEngineer: return "engineer";
    case Phase::kBaseline: return "baseline";
    case Phase::kAttack: return "attack";
    case Phase::kPredict: return "predict";
    case Phase::kDefend: return "defend";
    case Phase::kControl: return "control";
    case Phase::kProtect: return "protect";
  }
  return "unknown";
}

Framework::Framework(FrameworkConfig config)
    : config_(std::move(config)), monitor_(config_.metric_tolerance) {
  if (config_.top_k_features == 0)
    throw std::invalid_argument("Framework: top_k_features must be > 0");
}

void Framework::require(bool condition, const char* message) const {
  if (!condition) throw std::logic_error(std::string("Framework: ") + message);
}

bool Framework::phase_done(Phase phase) const {
  return (completed_phases_ >> static_cast<unsigned>(phase)) & 1u;
}

void Framework::mark_phase(Phase phase) {
  const unsigned bit = static_cast<unsigned>(phase);
  // Keep bits at or below `phase`, set this one: re-running any phase
  // invalidates every downstream phase's recorded completion.
  completed_phases_ =
      (completed_phases_ & ((1u << (bit + 1)) - 1u)) | (1u << bit);
}

void Framework::acquire_data() {
  const obs::Span span = obs::phase_span("pipeline.acquire");
  const util::Timer timer;
  if (fleet_mode()) {
    // Sharded out-of-core build (or per-shard resume of one).  The phase
    // only counts as done once every shard is on disk with a valid CRC, so
    // a limit_shards-interrupted build re-enters here on the next run.
    const sim::ShardBuildStats stats =
        sim::build_corpus_sharded(config_.corpus, config_.fleet);
    publish_corpus_stats(stats);
    set_size_gauge("corpus", stats.rows);
    require(stats.complete,
            "acquire_data: fleet build incomplete (limit_shards interrupted "
            "it); run again to resume the remaining shards");
  } else {
    corpus_ = sim::build_corpus(config_.corpus);
    set_size_gauge("corpus", corpus_->records.size());
  }
  mark_phase(Phase::kAcquire);
  finish_phase("acquire", timer);
}

void Framework::engineer_features() {
  if (fleet_mode()) {
    engineer_features_fleet();
    return;
  }
  require(corpus_.has_value(), "acquire_data must run before engineer_features");
  const obs::Span span = obs::phase_span("pipeline.engineer");
  const util::Timer timer;

  // Raw columnar dataset over all HPC events.
  ml::Dataset raw = sim::corpus_to_dataset(*corpus_);

  // Cleaning (drop non-finite rows, winsorize counter glitches).
  raw = ml::clean(raw);

  // Paper protocol: 80:20 train/test, then 80:20 train/val — split before
  // fitting anything so no statistic leaks from test into training.
  util::Rng rng(config_.seed);
  ml::TrainValTest split = ml::paper_protocol_split(raw, rng);

  if (config_.feature_mode == FeatureSelectionMode::kPaperFeatures) {
    // The paper's MI-selected feature set, pinned by event name.
    feature_indices_.clear();
    for (const char* name :
         {"LLC-load-misses", "LLC-loads", "cache-misses", "cache-references"}) {
      const auto event = sim::event_from_name(name);
      feature_indices_.push_back(static_cast<std::size_t>(event));
    }
    if (feature_indices_.size() > config_.top_k_features)
      feature_indices_.resize(config_.top_k_features);
  } else {
    // MI-based selection of the top-k features, estimated on train only.
    feature_indices_ = ml::select_top_k_features(split.train, config_.top_k_features,
                                                 config_.mi_bins);
  }
  feature_names_.clear();
  for (std::size_t idx : feature_indices_)
    feature_names_.push_back(raw.feature_names[idx]);

  // Column selection then standard scaling fitted on train, applied in
  // place on the selected columnar storage — one copy per split instead of
  // select + a second full transform copy.
  train_ = split.train.select_features(feature_indices_);
  val_ = split.val.select_features(feature_indices_);
  test_ = split.test.select_features(feature_indices_);
  scaler_.fit(train_);
  scaler_.transform_inplace(train_.X.mutable_view());
  scaler_.transform_inplace(val_.X.mutable_view());
  scaler_.transform_inplace(test_.X.mutable_view());

  // Clipping bounds for the attack (Algorithm 1 line 1), in scaled space.
  bounds_ = ml::feature_bounds(train_);

  set_size_gauge("train", train_.size());
  set_size_gauge("val", val_.size());
  set_size_gauge("test", test_.size());
  mark_phase(Phase::kEngineer);
  finish_phase("engineer", timer);
}

void Framework::engineer_features_fleet() {
  require(phase_done(Phase::kAcquire),
          "acquire_data must run before engineer_features");
  const obs::Span span = obs::phase_span("pipeline.engineer");
  const util::Timer timer;

  // Map the shard directory read-only; selection walks every row through
  // the mmapped column views one scratch column at a time, so the only
  // full-height allocation before the top-k cut is a single column.
  const ml::ShardedDataset source =
      ml::ShardedDataset::open(config_.fleet.out_dir);
  if (obs::Telemetry::enabled())
    obs::Telemetry::metrics()
        .gauge("drlhmd.corpus.mmap_bytes")
        .set(static_cast<double>(source.mapped_bytes()));

  if (config_.feature_mode == FeatureSelectionMode::kPaperFeatures) {
    feature_indices_.clear();
    for (const char* name :
         {"LLC-load-misses", "LLC-loads", "cache-misses", "cache-references"}) {
      const auto event = sim::event_from_name(name);
      feature_indices_.push_back(static_cast<std::size_t>(event));
    }
    if (feature_indices_.size() > config_.top_k_features)
      feature_indices_.resize(config_.top_k_features);
  } else {
    // Streamed MI over the whole shard set.  Out-of-core selection
    // necessarily ranks on all rows rather than the train split only: the
    // corpus cannot be row-split until the selected columns fit in RAM.
    feature_indices_ = ml::select_top_k_features(source, config_.top_k_features,
                                                 config_.mi_bins);
  }
  feature_names_.clear();
  for (std::size_t idx : feature_indices_)
    feature_names_.push_back(source.feature_names()[idx]);

  // Materialize only the selected k columns — the full-width corpus never
  // exists in RAM.  Cleaning, the paper split and scaling then run on the
  // k-wide slice exactly as the in-RAM path does post-selection.
  ml::Dataset raw = ml::materialize_columns(source, feature_indices_);
  raw = ml::clean(raw);

  util::Rng rng(config_.seed);
  ml::TrainValTest split = ml::paper_protocol_split(raw, rng);
  train_ = std::move(split.train);
  val_ = std::move(split.val);
  test_ = std::move(split.test);
  scaler_.fit(train_);
  scaler_.transform_inplace(train_.X.mutable_view());
  scaler_.transform_inplace(val_.X.mutable_view());
  scaler_.transform_inplace(test_.X.mutable_view());
  bounds_ = ml::feature_bounds(train_);

  set_size_gauge("train", train_.size());
  set_size_gauge("val", val_.size());
  set_size_gauge("test", test_.size());
  mark_phase(Phase::kEngineer);
  finish_phase("engineer", timer);
}

void Framework::train_baselines() {
  require(train_.size() > 0, "engineer_features must run before train_baselines");
  const obs::Span span = obs::phase_span("pipeline.baseline");
  const util::Timer timer;
  baseline_models_ = ml::make_all_models(config_.seed);
  for (auto& model : baseline_models_) model->fit(train_);
  mark_phase(Phase::kBaseline);
  finish_phase("baseline", timer);
}

void Framework::generate_attacks() {
  require(train_.size() > 0, "engineer_features must run before generate_attacks");
  const obs::Span span = obs::phase_span("pipeline.attack");
  const util::Timer timer;

  // Attacker's surrogate: an LR trained the same way the defenders train
  // (threat model: attacker gathers its own HPC data with the same process).
  surrogate_ = std::make_unique<ml::LogisticRegression>();
  surrogate_->fit(train_);
  attacker_ = std::make_unique<adversarial::LowProFool>(
      *surrogate_, bounds_, adversarial::importance_from_lr(*surrogate_),
      config_.attack);

  adversarial_train_ = attacker_->attack_dataset(rows_with_label(train_, 1));
  adversarial_val_ = attacker_->attack_dataset(rows_with_label(val_, 1));
  adversarial_test_ = attacker_->attack_dataset(rows_with_label(test_, 1));

  // Inference mixture under attack: benign traffic plus adversarial malware
  // (the attacker rewrites every malware HPC vector it launches).
  attacked_test_mix_ = rows_with_label(test_, 0);
  attacked_test_mix_.append(adversarial_test_);

  // Validation mixture for profiling defended models: benign + legitimate
  // malware + adversarial malware from the validation split.
  defense_val_mix_ = val_;
  defense_val_mix_.append(adversarial_val_);

  if (obs::Telemetry::enabled()) {
    set_size_gauge("adversarial_train", adversarial_train_.size());
    set_size_gauge("adversarial_test", adversarial_test_.size());
    // Attack success against the surrogate evaluator: how many generated
    // vectors the imperceptibility LR now calls benign.
    obs::Counter& generated =
        obs::Telemetry::metrics().counter("drlhmd.pipeline.attack.generated");
    obs::Counter& success =
        obs::Telemetry::metrics().counter("drlhmd.pipeline.attack.success");
    for (const ml::Dataset* pool :
         {&adversarial_train_, &adversarial_val_, &adversarial_test_}) {
      const std::vector<int> predictions = surrogate_->predict_batch(*pool);
      for (const int prediction : predictions) {
        generated.inc();
        if (prediction == config_.attack.target_label) success.inc();
      }
    }
  }
  mark_phase(Phase::kAttack);
  finish_phase("attack", timer);
}

void Framework::train_predictor() {
  require(adversarial_train_.size() > 0,
          "generate_attacks must run before train_predictor");
  const obs::Span span = obs::phase_span("pipeline.predict");
  const util::Timer timer;
  rl::AdversarialPredictorConfig cfg = config_.predictor;
  cfg.seed += config_.seed;
  predictor_ = std::make_unique<rl::AdversarialPredictor>(
      config_.top_k_features, cfg);
  // Labeled adversarial pool vs. unlabeled ("None") legitimate pool.
  predictor_->train(adversarial_train_, train_);
  mark_phase(Phase::kPredict);
  finish_phase("predict", timer);
}

void Framework::train_defenses() {
  require(adversarial_train_.size() > 0,
          "generate_attacks must run before train_defenses");
  const obs::Span span = obs::phase_span("pipeline.defend");
  const util::Timer timer;

  // Merged HPC database [malware, benign, adversarial]: adversarial samples
  // are labeled by the predictor's positive feedback in deployment; here the
  // freshly generated pool is merged with ground-truth label "malware".
  merged_train_ = train_;
  merged_train_.append(adversarial_train_);

  defended_models_ = ml::make_all_models(config_.seed + 1);
  for (auto& model : defended_models_) model->fit(merged_train_);

  // Metric Monitor inputs for the controller (classical models only).
  std::vector<ml::Classifier*> classical;
  for (std::size_t i = 0; i + 1 < defended_models_.size(); ++i)
    classical.push_back(defended_models_[i].get());
  defended_profiles_ = rl::profile_models(classical, defense_val_mix_);

  set_size_gauge("merged_train", merged_train_.size());
  mark_phase(Phase::kDefend);
  finish_phase("defend", timer);
}

void Framework::train_controllers() {
  require(!defended_models_.empty(),
          "train_defenses must run before train_controllers");
  const obs::Span span = obs::phase_span("pipeline.control");
  const util::Timer timer;

  std::vector<ml::Classifier*> classical;
  for (std::size_t i = 0; i + 1 < defended_models_.size(); ++i)
    classical.push_back(defended_models_[i].get());

  controllers_.clear();
  for (rl::ConstraintPolicy policy :
       {rl::ConstraintPolicy::kFastInference, rl::ConstraintPolicy::kSmallMemory,
        rl::ConstraintPolicy::kBestDetection}) {
    rl::ConstraintControllerConfig cfg = config_.controller;
    cfg.policy = policy;
    cfg.training_epochs = config_.controller_epochs;
    cfg.seed += config_.seed + static_cast<std::uint64_t>(policy);
    auto controller = std::make_unique<rl::ConstraintController>(
        classical, defended_profiles_, cfg);
    // Reward the bandit on held-out data: trees memorize their training
    // rows, so a merged-train stream would make every arm look perfect.
    controller->train(defense_val_mix_);
    controllers_[policy] = std::move(controller);
  }
  mark_phase(Phase::kControl);
  finish_phase("control", timer);
}

void Framework::protect_models(std::uint64_t deploy_timestamp) {
  require(!defended_models_.empty(), "train_defenses must run before protect_models");
  const obs::Span span = obs::phase_span("pipeline.protect");
  const util::Timer timer;
  for (const auto& model : defended_models_) {
    vault_.deploy(model->name(), model->serialize(), deploy_timestamp);
    monitor_.record_baseline(*model, defense_val_mix_);
  }
  mark_phase(Phase::kProtect);
  finish_phase("protect", timer);
}

void Framework::incremental_defense_update(const ml::Dataset& new_adversarial) {
  require(!defended_models_.empty(),
          "train_defenses must run before incremental_defense_update");
  new_adversarial.validate();
  if (new_adversarial.size() == 0) return;
  const obs::Span span = obs::phase_span("pipeline.incremental_update");
  DRLHMD_LOG(Info) << "incremental defense update: +" << new_adversarial.size()
                   << " adversarial samples (merged DB -> "
                   << merged_train_.size() + new_adversarial.size() << ")";
  for (int label : new_adversarial.y)
    if (label != 1)
      throw std::invalid_argument(
          "incremental_defense_update: quarantined samples must be label 1");

  merged_train_.append(new_adversarial);
  for (auto& model : defended_models_) {
    auto fresh = model->clone_untrained();
    fresh->fit(merged_train_);
    model = std::move(fresh);
  }

  std::vector<ml::Classifier*> classical;
  for (std::size_t i = 0; i + 1 < defended_models_.size(); ++i)
    classical.push_back(defended_models_[i].get());
  defended_profiles_ = rl::profile_models(classical, defense_val_mix_);

  if (!controllers_.empty()) train_controllers();
  if (vault_.size() > 0) {
    // Re-deploy with a bumped timestamp so the vault tracks the new bytes.
    const std::uint64_t stamp =
        vault_.record(defended_models_.front()->name())
            ? vault_.record(defended_models_.front()->name())->deployed_at + 1
            : 1;
    protect_models(stamp);
  }
}

void Framework::run_all() {
  const obs::Span span = obs::phase_span("pipeline");
  if (!phase_done(Phase::kAcquire)) acquire_data();
  if (!phase_done(Phase::kEngineer)) engineer_features();
  if (!phase_done(Phase::kBaseline)) train_baselines();
  if (!phase_done(Phase::kAttack)) generate_attacks();
  if (!phase_done(Phase::kPredict)) train_predictor();
  if (!phase_done(Phase::kDefend)) train_defenses();
  if (!phase_done(Phase::kControl)) train_controllers();
  if (!phase_done(Phase::kProtect)) protect_models();
}

std::vector<ScenarioEvaluation> Framework::evaluate_scenarios() const {
  require(!baseline_models_.empty() && !defended_models_.empty(),
          "baselines and defenses must be trained before evaluate_scenarios");
  std::vector<ScenarioEvaluation> rows;
  rows.reserve(baseline_models_.size());
  for (std::size_t i = 0; i < baseline_models_.size(); ++i) {
    ScenarioEvaluation row;
    row.model = baseline_models_[i]->name();
    row.regular = baseline_models_[i]->evaluate(test_);
    row.adversarial = baseline_models_[i]->evaluate(attacked_test_mix_);
    row.defended = defended_models_[i]->evaluate(attacked_test_mix_);
    rows.push_back(std::move(row));
  }
  return rows;
}

ml::MetricReport Framework::evaluate_predictor() const {
  require(predictor_ != nullptr, "train_predictor must run first");
  return predictor_->evaluate(adversarial_test_, test_);
}

std::vector<double> Framework::predictor_reward_trace() const {
  require(predictor_ != nullptr, "train_predictor must run first");
  std::vector<double> trace(adversarial_test_.size() + test_.size());
  const std::span<double> all(trace);
  predictor_->feedback_reward_batch(adversarial_test_.view(),
                                    all.subspan(0, adversarial_test_.size()));
  predictor_->feedback_reward_batch(test_.view(),
                                    all.subspan(adversarial_test_.size()));
  return trace;
}

adversarial::AttackCampaignReport Framework::attack_report() const {
  require(attacker_ != nullptr, "generate_attacks must run first");
  return attacker_->evaluate_campaign(rows_with_label(test_, 1));
}

const sim::HpcCorpus& Framework::corpus() const {
  require(corpus_.has_value(), "acquire_data must run first");
  return *corpus_;
}

const ml::Dataset& Framework::train_set() const { return train_; }
const ml::Dataset& Framework::val_set() const { return val_; }
const ml::Dataset& Framework::test_set() const { return test_; }
const ml::Dataset& Framework::adversarial_train() const { return adversarial_train_; }
const ml::Dataset& Framework::adversarial_test() const { return adversarial_test_; }
const ml::Dataset& Framework::merged_train() const { return merged_train_; }
const ml::Dataset& Framework::attacked_test_mix() const { return attacked_test_mix_; }
const ml::Dataset& Framework::defense_val_mix() const { return defense_val_mix_; }

const std::vector<std::string>& Framework::selected_feature_names() const {
  return feature_names_;
}
const std::vector<std::size_t>& Framework::selected_feature_indices() const {
  return feature_indices_;
}

const std::vector<std::unique_ptr<ml::Classifier>>& Framework::baseline_models()
    const {
  return baseline_models_;
}
const std::vector<std::unique_ptr<ml::Classifier>>& Framework::defended_models()
    const {
  return defended_models_;
}

const rl::AdversarialPredictor& Framework::predictor() const {
  require(predictor_ != nullptr, "train_predictor must run first");
  return *predictor_;
}

const rl::ConstraintController& Framework::controller(
    rl::ConstraintPolicy policy) const {
  const auto it = controllers_.find(policy);
  require(it != controllers_.end(), "train_controllers must run first");
  return *it->second;
}

const std::vector<rl::ModelProfile>& Framework::defended_profiles() const {
  return defended_profiles_;
}

}  // namespace drlhmd::core
