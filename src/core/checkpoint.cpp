// Framework checkpointing: save_checkpoint() persists the config, the
// phase-completion mask, and every completed phase's outputs as named
// artifacts in a directory-backed ArtifactStore; resume() reconstructs a
// Framework from such a directory, restoring state up to the last completed
// phase so run_all() re-runs only the rest.
//
// Artifact map (name -> kind), written per completed phase:
//   manifest                   drlhmd.manifest        mask + FrameworkConfig
//   corpus                     drlhmd.sim.corpus      acquire
//   preprocess                 drlhmd.ml.preprocess   engineer (scaler +
//                                                     selected features)
//   dataset-{train,val,test}   drlhmd.ml.dataset      engineer
//   model-baseline-<i>-<name>  drlhmd.ml.classifier   baseline
//   attack-surrogate           drlhmd.ml.classifier   attack
//   dataset-adv_{train,val,test}, dataset-attacked_test_mix,
//   dataset-defense_val_mix    drlhmd.ml.dataset      attack
//   predictor                  drlhmd.rl.predictor    predict
//   dataset-merged_train       drlhmd.ml.dataset      defend
//   model-defended-<i>-<name>  drlhmd.ml.classifier   defend
//   profiles                   drlhmd.rl.profiles     defend
//   controller-{fast,small,best} drlhmd.rl.controller control
//   vault                      drlhmd.integrity.vault protect
//   monitor                    drlhmd.integrity.monitor protect
//
// Derived state is recomputed instead of persisted: feature bounds come
// from the restored train split, and the LowProFool attacker is rebuilt
// from the restored surrogate + config (all deterministic).
//
// Scope note: the nested simulator configs (CorpusConfig.monitor /
// .hierarchy / .core) only shape acquire_data, whose output corpus is
// persisted whole, so they are not serialized; a resume that still needs to
// run the acquire phase uses their defaults.
#include <stdexcept>
#include <string>

#include "adversarial/feature_importance.hpp"
#include "core/framework.hpp"
#include "obs/log.hpp"
#include "util/artifact_store.hpp"

namespace drlhmd::core {
namespace {

constexpr std::uint32_t kFormatVersion = 1;
// Manifest payload versions: v1 = mask + config; v2 appends the fleet
// fields (sharded-corpus mode).  v1 manifests resume with fleet defaults.
constexpr std::uint32_t kManifestVersion = 2;

constexpr const char* kKindManifest = "drlhmd.manifest";
constexpr const char* kKindCorpus = "drlhmd.sim.corpus";
constexpr const char* kKindPreprocess = "drlhmd.ml.preprocess";
constexpr const char* kKindDataset = "drlhmd.ml.dataset";
constexpr const char* kKindClassifier = "drlhmd.ml.classifier";
constexpr const char* kKindPredictor = "drlhmd.rl.predictor";
constexpr const char* kKindProfiles = "drlhmd.rl.profiles";
constexpr const char* kKindController = "drlhmd.rl.controller";
constexpr const char* kKindVault = "drlhmd.integrity.vault";
constexpr const char* kKindMonitor = "drlhmd.integrity.monitor";

struct PolicySlot {
  rl::ConstraintPolicy policy;
  const char* artifact;
};
constexpr PolicySlot kPolicySlots[] = {
    {rl::ConstraintPolicy::kFastInference, "controller-fast"},
    {rl::ConstraintPolicy::kSmallMemory, "controller-small"},
    {rl::ConstraintPolicy::kBestDetection, "controller-best"},
};

void write_config(util::ByteWriter& w, const FrameworkConfig& c) {
  w.write_u64(c.corpus.benign_apps);
  w.write_u64(c.corpus.malware_apps);
  w.write_u64(c.corpus.windows_per_app);
  w.write_u64(c.corpus.seed);
  w.write_u8(static_cast<std::uint8_t>(c.feature_mode));
  w.write_u64(c.top_k_features);
  w.write_u64(c.mi_bins);
  w.write_u64(c.attack.max_steps);
  w.write_f64(c.attack.step_size);
  w.write_f64(c.attack.lambda);
  w.write_f64(c.attack.p_norm);
  w.write_i64(c.attack.target_label);
  w.write_f64(c.attack.momentum);
  w.write_f64(c.attack.confidence_margin);
  {
    std::vector<std::uint64_t> hidden(c.predictor.a2c.hidden.begin(),
                                      c.predictor.a2c.hidden.end());
    w.write_u64_vec(hidden);
  }
  w.write_f64(c.predictor.a2c.actor_lr);
  w.write_f64(c.predictor.a2c.critic_lr);
  w.write_f64(c.predictor.a2c.gamma);
  w.write_f64(c.predictor.a2c.entropy_bonus);
  w.write_u64(c.predictor.a2c.seed);
  w.write_f64(c.predictor.reward_adversarial);
  w.write_f64(c.predictor.reward_none);
  w.write_f64(c.predictor.reward_threshold);
  w.write_u64(c.predictor.epochs);
  w.write_u64(c.predictor.seed);
  w.write_u8(static_cast<std::uint8_t>(c.controller.policy));
  w.write_f64(c.controller.accuracy_weight);
  w.write_f64(c.controller.ucb.exploration);
  w.write_u64(c.controller.training_epochs);
  w.write_u64(c.controller.seed);
  w.write_u64(c.controller_epochs);
  w.write_f64(c.metric_tolerance);
  w.write_u64(c.seed);
  // Manifest v2: fleet (sharded-corpus) fields.
  w.write_u64(c.fleet.shards);
  w.write_u64(c.fleet.limit_shards);
  w.write_string(c.fleet.out_dir);
  w.write_u64(c.fleet.profiles.size());
  for (const auto& id : c.fleet.profiles) w.write_string(id);
}

FrameworkConfig read_config(util::ByteReader& r, std::uint32_t version) {
  FrameworkConfig c;
  c.corpus.benign_apps = static_cast<std::size_t>(r.read_u64());
  c.corpus.malware_apps = static_cast<std::size_t>(r.read_u64());
  c.corpus.windows_per_app = static_cast<std::size_t>(r.read_u64());
  c.corpus.seed = r.read_u64();
  c.feature_mode = static_cast<FeatureSelectionMode>(r.read_u8());
  c.top_k_features = static_cast<std::size_t>(r.read_u64());
  c.mi_bins = static_cast<std::size_t>(r.read_u64());
  c.attack.max_steps = static_cast<std::size_t>(r.read_u64());
  c.attack.step_size = r.read_f64();
  c.attack.lambda = r.read_f64();
  c.attack.p_norm = r.read_f64();
  c.attack.target_label = static_cast<int>(r.read_i64());
  c.attack.momentum = r.read_f64();
  c.attack.confidence_margin = r.read_f64();
  {
    c.predictor.a2c.hidden.clear();
    for (std::uint64_t h : r.read_u64_vec())
      c.predictor.a2c.hidden.push_back(static_cast<std::size_t>(h));
  }
  c.predictor.a2c.actor_lr = r.read_f64();
  c.predictor.a2c.critic_lr = r.read_f64();
  c.predictor.a2c.gamma = r.read_f64();
  c.predictor.a2c.entropy_bonus = r.read_f64();
  c.predictor.a2c.seed = r.read_u64();
  c.predictor.reward_adversarial = r.read_f64();
  c.predictor.reward_none = r.read_f64();
  c.predictor.reward_threshold = r.read_f64();
  c.predictor.epochs = static_cast<std::size_t>(r.read_u64());
  c.predictor.seed = r.read_u64();
  c.controller.policy = static_cast<rl::ConstraintPolicy>(r.read_u8());
  c.controller.accuracy_weight = r.read_f64();
  c.controller.ucb.exploration = r.read_f64();
  c.controller.training_epochs = static_cast<std::size_t>(r.read_u64());
  c.controller.seed = r.read_u64();
  c.controller_epochs = static_cast<std::size_t>(r.read_u64());
  c.metric_tolerance = r.read_f64();
  c.seed = r.read_u64();
  if (version >= 2) {
    c.fleet.shards = static_cast<std::size_t>(r.read_u64());
    c.fleet.limit_shards = static_cast<std::size_t>(r.read_u64());
    c.fleet.out_dir = r.read_string();
    const std::uint64_t n_profiles = r.read_u64();
    c.fleet.profiles.clear();
    for (std::uint64_t i = 0; i < n_profiles; ++i)
      c.fleet.profiles.push_back(r.read_string());
  }
  return c;
}

void put_dataset(const util::ArtifactStore& store, const std::string& name,
                 const ml::Dataset& data) {
  store.put(name, kKindDataset, kFormatVersion, data.serialize());
}

ml::Dataset get_dataset(const util::ArtifactStore& store, const std::string& name) {
  const util::Artifact art = store.get(name);
  if (art.kind != kKindDataset)
    throw std::invalid_argument("checkpoint: artifact '" + name +
                                "' has kind '" + art.kind + "', expected dataset");
  return ml::Dataset::deserialize(art.payload);
}

std::vector<std::uint8_t> expect_payload(const util::ArtifactStore& store,
                                         const std::string& name,
                                         const char* kind) {
  util::Artifact art = store.get(name);
  if (art.kind != kind)
    throw std::invalid_argument("checkpoint: artifact '" + name + "' has kind '" +
                                art.kind + "', expected '" + kind + "'");
  return std::move(art.payload);
}

/// First stored artifact whose name starts with `prefix`; empty if none.
std::string find_with_prefix(const std::vector<std::string>& names,
                             const std::string& prefix) {
  for (const auto& n : names)
    if (n.rfind(prefix, 0) == 0) return n;
  return {};
}

/// Load the indexed model artifacts "<stem>-<0..>-<name>" in index order.
std::vector<std::unique_ptr<ml::Classifier>> load_model_set(
    const util::ArtifactStore& store, const std::string& stem) {
  const std::vector<std::string> names = store.list();
  std::vector<std::unique_ptr<ml::Classifier>> models;
  for (std::size_t i = 0;; ++i) {
    const std::string hit =
        find_with_prefix(names, stem + "-" + std::to_string(i) + "-");
    if (hit.empty()) break;
    models.push_back(ml::load_classifier(expect_payload(store, hit, kKindClassifier)));
  }
  return models;
}

void put_model_set(const util::ArtifactStore& store, const std::string& stem,
                   const std::vector<std::unique_ptr<ml::Classifier>>& models) {
  for (std::size_t i = 0; i < models.size(); ++i)
    store.put(stem + "-" + std::to_string(i) + "-" + models[i]->name(),
              kKindClassifier, kFormatVersion, models[i]->serialize());
}

}  // namespace

void Framework::save_checkpoint(const std::string& dir) const {
  const util::ArtifactStore store(dir);

  {
    util::ByteWriter w;
    w.write_u32(completed_phases_);
    write_config(w, config_);
    store.put("manifest", kKindManifest, kManifestVersion, w.bytes());
  }

  // Fleet mode leaves corpus_ empty — the corpus lives in the shard
  // directory (with its own per-shard resume state), not the checkpoint.
  if (phase_done(Phase::kAcquire) && corpus_.has_value())
    store.put("corpus", kKindCorpus, kFormatVersion, sim::serialize_corpus(*corpus_));

  if (phase_done(Phase::kEngineer)) {
    util::ByteWriter w;
    w.write_bytes(scaler_.serialize());
    {
      std::vector<std::uint64_t> indices(feature_indices_.begin(),
                                         feature_indices_.end());
      w.write_u64_vec(indices);
    }
    w.write_u64(feature_names_.size());
    for (const auto& name : feature_names_) w.write_string(name);
    store.put("preprocess", kKindPreprocess, kFormatVersion, w.bytes());
    put_dataset(store, "dataset-train", train_);
    put_dataset(store, "dataset-val", val_);
    put_dataset(store, "dataset-test", test_);
  }

  if (phase_done(Phase::kBaseline))
    put_model_set(store, "model-baseline", baseline_models_);

  if (phase_done(Phase::kAttack)) {
    store.put("attack-surrogate", kKindClassifier, kFormatVersion,
              surrogate_->serialize());
    put_dataset(store, "dataset-adv_train", adversarial_train_);
    put_dataset(store, "dataset-adv_val", adversarial_val_);
    put_dataset(store, "dataset-adv_test", adversarial_test_);
    put_dataset(store, "dataset-attacked_test_mix", attacked_test_mix_);
    put_dataset(store, "dataset-defense_val_mix", defense_val_mix_);
  }

  if (phase_done(Phase::kPredict))
    store.put("predictor", kKindPredictor, kFormatVersion, predictor_->serialize());

  if (phase_done(Phase::kDefend)) {
    put_dataset(store, "dataset-merged_train", merged_train_);
    put_model_set(store, "model-defended", defended_models_);
    util::ByteWriter w;
    w.write_u64(defended_profiles_.size());
    for (const auto& profile : defended_profiles_)
      rl::write_model_profile(w, profile);
    store.put("profiles", kKindProfiles, kFormatVersion, w.bytes());
  }

  if (phase_done(Phase::kControl)) {
    for (const PolicySlot& slot : kPolicySlots) {
      const auto it = controllers_.find(slot.policy);
      require(it != controllers_.end(),
              "save_checkpoint: control phase marked done but a controller is missing");
      store.put(slot.artifact, kKindController, kFormatVersion,
                it->second->serialize());
    }
  }

  if (phase_done(Phase::kProtect)) {
    store.put("vault", kKindVault, kFormatVersion, vault_.serialize());
    store.put("monitor", kKindMonitor, kFormatVersion, monitor_.serialize());
  }

  DRLHMD_LOG(Info) << "checkpoint saved to " << store.directory() << " ("
                   << store.list().size() << " artifacts)";
}

Framework Framework::resume(const std::string& dir) {
  const util::ArtifactStore store(dir);

  std::uint32_t mask = 0;
  FrameworkConfig config;
  {
    // get() rather than expect_payload: the payload layout depends on the
    // artifact version (v2 appends the fleet fields).
    const util::Artifact manifest = store.get("manifest");
    if (manifest.kind != kKindManifest)
      throw std::invalid_argument("checkpoint: artifact 'manifest' has kind '" +
                                  manifest.kind + "', expected manifest");
    if (manifest.version == 0 || manifest.version > kManifestVersion)
      throw std::invalid_argument("Framework::resume: unsupported manifest version " +
                                  std::to_string(manifest.version));
    util::ByteReader r(manifest.payload);
    mask = r.read_u32();
    config = read_config(r, manifest.version);
  }
  if (mask >= (1u << kPhaseCount))
    throw std::invalid_argument("Framework::resume: manifest phase mask invalid");

  Framework fw(config);
  const auto done = [mask](Phase phase) {
    return ((mask >> static_cast<unsigned>(phase)) & 1u) != 0;
  };

  // Fleet checkpoints carry no corpus artifact: the sharded corpus stays
  // in fleet.out_dir and engineer re-opens it from there on demand.
  if (done(Phase::kAcquire) && store.contains("corpus"))
    fw.corpus_ = sim::deserialize_corpus(expect_payload(store, "corpus", kKindCorpus));

  if (done(Phase::kEngineer)) {
    const std::vector<std::uint8_t> preprocess =
        expect_payload(store, "preprocess", kKindPreprocess);
    util::ByteReader r(preprocess);
    fw.scaler_ = ml::StandardScaler::deserialize(r.read_bytes());
    fw.feature_indices_.clear();
    for (std::uint64_t idx : r.read_u64_vec())
      fw.feature_indices_.push_back(static_cast<std::size_t>(idx));
    const std::uint64_t n_names = r.read_u64();
    fw.feature_names_.clear();
    for (std::uint64_t i = 0; i < n_names; ++i)
      fw.feature_names_.push_back(r.read_string());
    fw.train_ = get_dataset(store, "dataset-train");
    fw.val_ = get_dataset(store, "dataset-val");
    fw.test_ = get_dataset(store, "dataset-test");
    // Derived from the train split, not persisted.
    fw.bounds_ = ml::feature_bounds(fw.train_);
  }

  if (done(Phase::kBaseline)) {
    fw.baseline_models_ = load_model_set(store, "model-baseline");
    if (fw.baseline_models_.empty())
      throw std::invalid_argument("Framework::resume: no baseline model artifacts");
  }

  if (done(Phase::kAttack)) {
    const std::vector<std::uint8_t> bytes =
        expect_payload(store, "attack-surrogate", kKindClassifier);
    fw.surrogate_ = std::make_unique<ml::LogisticRegression>(
        ml::LogisticRegression::deserialize(bytes));
    // The attacker holds no learned state beyond the surrogate: rebuild it
    // from the restored surrogate, recomputed bounds and the config.
    fw.attacker_ = std::make_unique<adversarial::LowProFool>(
        *fw.surrogate_, fw.bounds_,
        adversarial::importance_from_lr(*fw.surrogate_), config.attack);
    fw.adversarial_train_ = get_dataset(store, "dataset-adv_train");
    fw.adversarial_val_ = get_dataset(store, "dataset-adv_val");
    fw.adversarial_test_ = get_dataset(store, "dataset-adv_test");
    fw.attacked_test_mix_ = get_dataset(store, "dataset-attacked_test_mix");
    fw.defense_val_mix_ = get_dataset(store, "dataset-defense_val_mix");
  }

  if (done(Phase::kPredict))
    fw.predictor_ = std::make_unique<rl::AdversarialPredictor>(
        rl::AdversarialPredictor::deserialize(
            expect_payload(store, "predictor", kKindPredictor)));

  if (done(Phase::kDefend)) {
    fw.merged_train_ = get_dataset(store, "dataset-merged_train");
    fw.defended_models_ = load_model_set(store, "model-defended");
    if (fw.defended_models_.empty())
      throw std::invalid_argument("Framework::resume: no defended model artifacts");
    const std::vector<std::uint8_t> profiles =
        expect_payload(store, "profiles", kKindProfiles);
    util::ByteReader r(profiles);
    const std::uint64_t count = r.read_u64();
    fw.defended_profiles_.clear();
    for (std::uint64_t i = 0; i < count; ++i)
      fw.defended_profiles_.push_back(rl::read_model_profile(r));
  }

  if (done(Phase::kControl)) {
    std::vector<ml::Classifier*> classical;
    for (std::size_t i = 0; i + 1 < fw.defended_models_.size(); ++i)
      classical.push_back(fw.defended_models_[i].get());
    for (const PolicySlot& slot : kPolicySlots)
      fw.controllers_[slot.policy] = std::make_unique<rl::ConstraintController>(
          rl::ConstraintController::deserialize(
              expect_payload(store, slot.artifact, kKindController), classical));
  }

  if (done(Phase::kProtect)) {
    fw.vault_ = integrity::ModelVault::deserialize(
        expect_payload(store, "vault", kKindVault));
    fw.monitor_ = integrity::MetricMonitor::deserialize(
        expect_payload(store, "monitor", kKindMonitor));
    // Mandatory deployment gate: every restored defended model must hash to
    // its vaulted digest.  A swapped model-* artifact passes its envelope
    // CRC (the CRC covers whatever bytes were written) but cannot match the
    // SHA-256 the vault recorded at deployment.
    for (const auto& model : fw.defended_models_) {
      if (fw.vault_.verify(model->name(), model->serialize()) !=
          integrity::VerificationStatus::kIntact)
        throw std::runtime_error(
            "Framework::resume: model '" + model->name() +
            "' does not match its vaulted SHA-256 digest — checkpoint "
            "tampered, refusing to deploy");
    }
  }

  fw.completed_phases_ = mask;
  DRLHMD_LOG(Info) << "resumed checkpoint from " << store.directory()
                   << " (phase mask " << mask << ")";
  return fw;
}

}  // namespace drlhmd::core
