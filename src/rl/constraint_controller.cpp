#include "rl/constraint_controller.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "util/arena.hpp"

namespace drlhmd::rl {

std::string policy_name(ConstraintPolicy policy) {
  switch (policy) {
    case ConstraintPolicy::kFastInference: return "Agent 1 (faster inference)";
    case ConstraintPolicy::kSmallMemory: return "Agent 2 (smaller memory)";
    case ConstraintPolicy::kBestDetection: return "Agent 3 (efficient detection)";
  }
  throw std::invalid_argument("policy_name: bad policy");
}

ConstraintController::ConstraintController(std::vector<ml::Classifier*> models,
                                           std::vector<ModelProfile> profiles,
                                           ConstraintControllerConfig config)
    : models_(std::move(models)),
      profiles_(std::move(profiles)),
      config_(config),
      bandit_(models_.empty() ? 1 : models_.size(), config.ucb) {
  if (models_.empty())
    throw std::invalid_argument("ConstraintController: no models");
  if (profiles_.size() != models_.size())
    throw std::invalid_argument("ConstraintController: profile/model count mismatch");
  for (const auto* m : models_) {
    if (m == nullptr || !m->trained())
      throw std::invalid_argument("ConstraintController: models must be trained");
  }

  min_latency_ = std::numeric_limits<double>::infinity();
  min_memory_ = std::numeric_limits<std::size_t>::max();
  for (const auto& p : profiles_) {
    min_latency_ = std::min(min_latency_, p.latency_us);
    min_memory_ = std::min(min_memory_, p.memory_bytes);
  }

  if (config_.accuracy_weight >= 0.0) {
    accuracy_weight_ = config_.accuracy_weight;
  } else {
    switch (config_.policy) {
      case ConstraintPolicy::kFastInference: accuracy_weight_ = 0.30; break;
      case ConstraintPolicy::kSmallMemory: accuracy_weight_ = 0.30; break;
      case ConstraintPolicy::kBestDetection: accuracy_weight_ = 0.97; break;
    }
  }
  if (accuracy_weight_ > 1.0)
    throw std::invalid_argument("ConstraintController: accuracy_weight > 1");
}

double ConstraintController::constraint_score(std::size_t index) const {
  if (index >= profiles_.size())
    throw std::out_of_range("ConstraintController::constraint_score: bad index");
  const ModelProfile& p = profiles_[index];
  const double lat_score = p.latency_us > 0.0 ? min_latency_ / p.latency_us : 1.0;
  const double mem_score =
      p.memory_bytes > 0 ? static_cast<double>(min_memory_) /
                               static_cast<double>(p.memory_bytes)
                         : 1.0;
  switch (config_.policy) {
    case ConstraintPolicy::kFastInference: return lat_score;
    case ConstraintPolicy::kSmallMemory: return mem_score;
    case ConstraintPolicy::kBestDetection:
      return 0.5 * (lat_score + mem_score);  // soft overhead tiebreak
  }
  return 0.0;
}

double ConstraintController::reward(std::size_t arm, bool correct) const {
  if (!correct) return 0.0;  // paper: reward 0 for incorrect predictions
  return accuracy_weight_ + (1.0 - accuracy_weight_) * constraint_score(arm);
}

void ConstraintController::train(const ml::Dataset& stream) {
  stream.validate();
  if (stream.size() == 0)
    throw std::invalid_argument("ConstraintController::train: empty stream");

  util::Rng rng(config_.seed);
  std::vector<std::size_t> order(stream.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<double> features(stream.num_features());
  for (std::size_t epoch = 0; epoch < config_.training_epochs; ++epoch) {
    rng.shuffle(order);
    for (std::size_t row : order) {
      const std::size_t arm = bandit_.select();
      stream.gather_row(row, features);
      const int pred = models_[arm]->predict(features);
      bandit_.update(arm, reward(arm, pred == stream.y[row]));
    }
  }
}

std::size_t ConstraintController::selected_model() const {
  std::size_t best = 0;
  double best_mean = -1.0;
  for (std::size_t arm = 0; arm < bandit_.arm_count(); ++arm) {
    const double mean = bandit_.mean_reward(arm);
    if (mean > best_mean) {
      best_mean = mean;
      best = arm;
    }
  }
  return best;
}

const ml::Classifier& ConstraintController::model(std::size_t index) const {
  if (index >= models_.size())
    throw std::out_of_range("ConstraintController::model: bad index");
  return *models_[index];
}

const ModelProfile& ConstraintController::profile(std::size_t index) const {
  if (index >= profiles_.size())
    throw std::out_of_range("ConstraintController::profile: bad index");
  return profiles_[index];
}

int ConstraintController::predict(std::span<const double> features) const {
  return models_[selected_model()]->predict(features);
}

double ConstraintController::predict_proba(std::span<const double> features) const {
  return models_[selected_model()]->predict_proba(features);
}

void ConstraintController::predict_batch(ml::BatchView batch,
                                         std::span<int> out) const {
  if (out.size() != batch.rows())
    throw std::invalid_argument(
        "ConstraintController::predict_batch: out size mismatch");
  if (batch.rows() == 0) return;
  // The batch scores are bitwise the row path's (DESIGN.md §10/§12), so
  // these labels equal predict()'s.  Arena scratch: zero heap traffic in
  // steady state.
  util::ArenaScope scope(util::scratch_arena());
  auto scores = scope.alloc<double>(batch.rows());
  models_[selected_model()]->predict_proba_batch(
      batch, {scores.data(), scores.size()});
  for (std::size_t r = 0; r < batch.rows(); ++r)
    out[r] = scores[r] >= 0.5 ? 1 : 0;
}

int ConstraintController::observe(std::span<const double> features, int truth) {
  const std::size_t arm = bandit_.select();
  const int pred = models_[arm]->predict(features);
  bandit_.update(arm, reward(arm, pred == truth));
  return pred;
}

ml::MetricReport ConstraintController::evaluate(const ml::Dataset& data) const {
  data.validate();
  const std::size_t arm = selected_model();
  return models_[arm]->evaluate(data);
}

std::vector<std::uint8_t> ConstraintController::serialize() const {
  util::ByteWriter w;
  w.write_string("CTRL");
  w.write_u8(1);  // format version
  w.write_u8(static_cast<std::uint8_t>(config_.policy));
  w.write_f64(config_.accuracy_weight);
  w.write_f64(config_.ucb.exploration);
  w.write_u64(config_.training_epochs);
  w.write_u64(config_.seed);
  w.write_u64(profiles_.size());
  for (const ModelProfile& profile : profiles_) write_model_profile(w, profile);
  w.write_bytes(bandit_.serialize());
  return w.take();
}

ConstraintController ConstraintController::deserialize(
    std::span<const std::uint8_t> bytes, std::vector<ml::Classifier*> models) {
  util::ByteReader r(bytes);
  if (r.read_string() != "CTRL")
    throw std::invalid_argument("ConstraintController::deserialize: bad magic");
  if (r.read_u8() != 1)
    throw std::invalid_argument("ConstraintController::deserialize: bad version");
  ConstraintControllerConfig config;
  config.policy = static_cast<ConstraintPolicy>(r.read_u8());
  config.accuracy_weight = r.read_f64();
  config.ucb.exploration = r.read_f64();
  config.training_epochs = static_cast<std::size_t>(r.read_u64());
  config.seed = r.read_u64();
  const std::uint64_t n_profiles = r.read_u64();
  std::vector<ModelProfile> profiles;
  profiles.reserve(static_cast<std::size_t>(n_profiles));
  for (std::uint64_t i = 0; i < n_profiles; ++i)
    profiles.push_back(read_model_profile(r));
  UcbBandit bandit = UcbBandit::deserialize(r.read_bytes());
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    if (i < models.size() && models[i] != nullptr &&
        models[i]->name() != profiles[i].name)
      throw std::invalid_argument(
          "ConstraintController::deserialize: model/profile order mismatch");
  }
  // The constructor re-derives accuracy_weight_ and the min latency/memory
  // normalizers from config + profiles, exactly as at training time.
  ConstraintController controller(std::move(models), std::move(profiles), config);
  if (bandit.arm_count() != controller.models_.size())
    throw std::invalid_argument(
        "ConstraintController::deserialize: bandit arm count mismatch");
  controller.bandit_ = std::move(bandit);
  return controller;
}

std::vector<double> ConstraintController::build_state(
    std::span<const double> features) const {
  std::vector<double> state;
  state.reserve(features.size() + 2 * models_.size());
  state.insert(state.end(), features.begin(), features.end());
  for (const auto* model : models_)
    state.push_back(static_cast<double>(model->predict(features)));
  for (std::size_t arm = 0; arm < models_.size(); ++arm)
    state.push_back(constraint_score(arm) >= 0.5 ? 1.0 : 0.0);
  return state;
}

}  // namespace drlhmd::rl
