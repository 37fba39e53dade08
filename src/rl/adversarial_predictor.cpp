#include "rl/adversarial_predictor.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/arena.hpp"

namespace drlhmd::rl {

AdversarialPredictor::AdversarialPredictor(std::size_t feature_count,
                                           AdversarialPredictorConfig config)
    : feature_count_(feature_count),
      config_(config),
      agent_(feature_count, 2, config.a2c) {
  if (feature_count_ == 0)
    throw std::invalid_argument("AdversarialPredictor: feature_count == 0");
  if (config_.epochs == 0)
    throw std::invalid_argument("AdversarialPredictor: epochs must be > 0");
}

void AdversarialPredictor::train(const ml::Dataset& adversarial,
                                 const ml::Dataset& unlabeled) {
  adversarial.validate();
  unlabeled.validate();
  if (adversarial.size() == 0)
    throw std::invalid_argument("AdversarialPredictor::train: no adversarial data");
  if (adversarial.num_features() != feature_count_ ||
      (unlabeled.size() > 0 && unlabeled.num_features() != feature_count_))
    throw std::invalid_argument("AdversarialPredictor::train: feature width mismatch");

  // Build the training stream: (sample, is_adversarial) pairs, gathered
  // out of the columnar storage in the same adversarial-then-unlabeled
  // order as before so the shuffle permutes an identical sequence.
  struct Item {
    std::vector<double> x;
    bool adversarial;
  };
  std::vector<Item> stream;
  stream.reserve(adversarial.size() + unlabeled.size());
  for (std::size_t i = 0; i < adversarial.size(); ++i)
    stream.push_back({adversarial.row_copy(i), true});
  for (std::size_t i = 0; i < unlabeled.size(); ++i)
    stream.push_back({unlabeled.row_copy(i), false});

  util::Rng rng(config_.seed);
  double reward_sum = 0.0;
  std::size_t episodes = 0;

  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.shuffle(stream);
    for (const Item& item : stream) {
      // Single-step episode: the environment pays the adversarial reward
      // only when a truly adversarial sample is flagged as such; unlabeled
      // ("None") samples always pay reward_none.
      const std::size_t action = agent_.act(item.x, rng);
      const bool flagged =
          action == static_cast<std::size_t>(PredictorAction::kFlagAdversarial);
      const double reward = (item.adversarial && flagged)
                                ? config_.reward_adversarial
                                : config_.reward_none;
      agent_.update(item.x, action, reward, /*next_value=*/0.0, /*done=*/true);
      reward_sum += reward;
      ++episodes;
    }
  }
  mean_episode_reward_ = episodes > 0 ? reward_sum / static_cast<double>(episodes) : 0.0;
  trained_ = true;
}

double AdversarialPredictor::feedback_reward(std::span<const double> features) const {
  if (!trained_) throw std::logic_error("AdversarialPredictor: not trained");
  // The critic models E[reward | s]; the actor's policy determines how much
  // of the achievable reward is collected, so the feedback combines both:
  // V(s) is already the on-policy expectation.
  return agent_.value(features);
}

bool AdversarialPredictor::is_adversarial(std::span<const double> features) const {
  return feedback_reward(features) > config_.reward_threshold;
}

void AdversarialPredictor::feedback_reward_batch(ml::BatchView batch,
                                                 std::span<double> out) const {
  if (!trained_) throw std::logic_error("AdversarialPredictor: not trained");
  agent_.value_batch(batch, out);
}

void AdversarialPredictor::is_adversarial_batch(
    ml::BatchView batch, std::span<std::uint8_t> out) const {
  if (out.size() != batch.rows())
    throw std::invalid_argument(
        "AdversarialPredictor::is_adversarial_batch: out size mismatch");
  util::ArenaScope scope(util::scratch_arena());
  auto rewards = scope.alloc<double>(batch.rows());
  feedback_reward_batch(batch, {rewards.data(), rewards.size()});
  for (std::size_t r = 0; r < batch.rows(); ++r)
    out[r] = rewards[r] > config_.reward_threshold ? 1 : 0;
}

ml::MetricReport AdversarialPredictor::evaluate(const ml::Dataset& adversarial,
                                                const ml::Dataset& legitimate) const {
  std::vector<int> truth(adversarial.size() + legitimate.size());
  std::vector<double> scores(truth.size());
  std::fill(truth.begin(),
            truth.begin() + static_cast<std::ptrdiff_t>(adversarial.size()), 1);
  const std::span<double> all(scores);
  feedback_reward_batch(adversarial.view(), all.subspan(0, adversarial.size()));
  feedback_reward_batch(legitimate.view(), all.subspan(adversarial.size()));
  return ml::evaluate_scores(truth, scores, config_.reward_threshold);
}

std::vector<std::uint8_t> AdversarialPredictor::serialize() const {
  util::ByteWriter w;
  w.write_string("APRD");
  w.write_u8(1);  // format version
  w.write_u64(feature_count_);
  w.write_f64(config_.reward_adversarial);
  w.write_f64(config_.reward_none);
  w.write_f64(config_.reward_threshold);
  w.write_u64(config_.epochs);
  w.write_u64(config_.seed);
  w.write_u8(trained_ ? 1 : 0);
  w.write_f64(mean_episode_reward_);
  w.write_bytes(agent_.serialize());  // carries the A2C config block
  return w.take();
}

AdversarialPredictor AdversarialPredictor::deserialize(
    std::span<const std::uint8_t> bytes) {
  util::ByteReader r(bytes);
  if (r.read_string() != "APRD")
    throw std::invalid_argument("AdversarialPredictor::deserialize: bad magic");
  if (r.read_u8() != 1)
    throw std::invalid_argument("AdversarialPredictor::deserialize: bad version");
  const auto feature_count = static_cast<std::size_t>(r.read_u64());
  AdversarialPredictorConfig config;
  config.reward_adversarial = r.read_f64();
  config.reward_none = r.read_f64();
  config.reward_threshold = r.read_f64();
  config.epochs = static_cast<std::size_t>(r.read_u64());
  config.seed = r.read_u64();
  const bool trained = r.read_u8() != 0;
  const double mean_reward = r.read_f64();
  A2C agent = A2C::deserialize(r.read_bytes());
  if (agent.observation_size() != feature_count || agent.action_count() != 2)
    throw std::invalid_argument(
        "AdversarialPredictor::deserialize: agent shape mismatch");
  config.a2c = agent.config();
  AdversarialPredictor predictor(feature_count, config);
  predictor.agent_ = std::move(agent);
  predictor.trained_ = trained;
  predictor.mean_episode_reward_ = mean_reward;
  return predictor;
}

}  // namespace drlhmd::rl
