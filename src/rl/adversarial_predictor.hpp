// DRL-based adversarial-attack predictor (paper Section 2.5).
//
// Trained from *unlabeled* data: known adversarial samples carry a feedback
// reward of 100; legitimate malware and benign samples are treated as
// unlabeled ("None") and yield reward 0.  Each incoming sample is an
// independent single-step episode (MDP: state = top-4 HPC tuple, actions =
// {adversarial, nan}, rewards = {100, 0}, gamma = 0.99).
//
// At inference the paper "relies on feedback through the reward value
// rather than predictions from the DRL agent": the learned critic provides
// the expected feedback reward for a state, and a sample is flagged
// adversarial when that reward is positive (above `reward_threshold`).
#pragma once

#include "ml/dataset.hpp"
#include "ml/metrics.hpp"
#include "rl/a2c.hpp"

namespace drlhmd::rl {

/// Actions in the predictor MDP.
enum class PredictorAction : std::size_t { kFlagAdversarial = 0, kNan = 1 };

struct AdversarialPredictorConfig {
  A2CConfig a2c{};                      // paper: 4 hidden layers, 5e-4 / 1e-3
  double reward_adversarial = 100.0;
  double reward_none = 0.0;
  double reward_threshold = 50.0;       // positive-feedback decision boundary
  std::size_t epochs = 8;               // passes over the training stream
  std::uint64_t seed = 43;
};

class AdversarialPredictor {
 public:
  explicit AdversarialPredictor(std::size_t feature_count,
                                AdversarialPredictorConfig config = {});

  /// Train from labeled adversarial samples plus an unlabeled pool
  /// (legitimate malware + benign, labels ignored).  The streams are
  /// interleaved uniformly at random each epoch.
  void train(const ml::Dataset& adversarial, const ml::Dataset& unlabeled);

  /// Expected feedback reward for a sample (critic value).
  double feedback_reward(std::span<const double> features) const;
  /// Feedback rewards for a whole columnar batch (one critic pass).
  void feedback_reward_batch(ml::BatchView batch, std::span<double> out) const;

  /// Positive-feedback decision: adversarial iff reward > threshold.
  bool is_adversarial(std::span<const double> features) const;
  /// Batch decisions: out[r] != 0 iff batch row r is flagged adversarial.
  void is_adversarial_batch(ml::BatchView batch, std::span<std::uint8_t> out) const;

  /// Evaluate as a binary classifier: `adversarial` rows are positives,
  /// `legitimate` rows negatives.
  ml::MetricReport evaluate(const ml::Dataset& adversarial,
                            const ml::Dataset& legitimate) const;

  bool trained() const { return trained_; }
  const A2C& agent() const { return agent_; }
  double mean_training_episode_reward() const { return mean_episode_reward_; }

  /// Full state (config, training flag, A2C weights); round-trips to
  /// identical bytes, so a restored predictor scores traffic identically.
  std::vector<std::uint8_t> serialize() const;
  static AdversarialPredictor deserialize(std::span<const std::uint8_t> bytes);

 private:
  std::size_t feature_count_;
  AdversarialPredictorConfig config_;
  A2C agent_;
  bool trained_ = false;
  double mean_episode_reward_ = 0.0;
};

}  // namespace drlhmd::rl
