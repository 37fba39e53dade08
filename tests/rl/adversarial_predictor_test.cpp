#include "rl/adversarial_predictor.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

namespace drlhmd::rl {
namespace {

/// Adversarial samples cluster at (-3, ...); legitimate traffic at (+1, ...).
struct PredictorFixture {
  ml::Dataset adversarial;
  ml::Dataset legitimate;

  explicit PredictorFixture(std::size_t n_adv = 300, std::size_t n_legit = 600,
                            std::uint64_t seed = 3) {
    util::Rng rng(seed);
    for (std::size_t i = 0; i < n_adv; ++i) {
      std::vector<double> row(4);
      for (auto& v : row) v = rng.normal(-3.0, 0.5);
      adversarial.push(std::move(row), 1);
    }
    for (std::size_t i = 0; i < n_legit; ++i) {
      std::vector<double> row(4);
      for (auto& v : row) v = rng.normal(1.0, 0.8);
      legitimate.push(std::move(row), i % 2 == 0 ? 1 : 0);
    }
  }
};

AdversarialPredictorConfig fast_config() {
  AdversarialPredictorConfig cfg;
  cfg.a2c.hidden = {32, 32, 32, 32};
  cfg.epochs = 4;
  return cfg;
}

TEST(AdversarialPredictorTest, ConstructionValidation) {
  EXPECT_THROW(AdversarialPredictor(0), std::invalid_argument);
  AdversarialPredictorConfig bad;
  bad.epochs = 0;
  EXPECT_THROW(AdversarialPredictor(4, bad), std::invalid_argument);
}

TEST(AdversarialPredictorTest, RequiresTrainingBeforeInference) {
  AdversarialPredictor predictor(4);
  const std::vector<double> x = {0, 0, 0, 0};
  EXPECT_THROW(predictor.feedback_reward(x), std::logic_error);
  EXPECT_FALSE(predictor.trained());
}

TEST(AdversarialPredictorTest, TrainRejectsBadInputs) {
  AdversarialPredictor predictor(4, fast_config());
  const PredictorFixture fx;
  EXPECT_THROW(predictor.train(ml::Dataset{}, fx.legitimate),
               std::invalid_argument);
  ml::Dataset narrow;
  narrow.push({1.0}, 1);
  EXPECT_THROW(predictor.train(narrow, fx.legitimate), std::invalid_argument);
}

TEST(AdversarialPredictorTest, DiscriminatesAdversarialFromLegitimate) {
  const PredictorFixture fx;
  AdversarialPredictor predictor(4, fast_config());
  predictor.train(fx.adversarial, fx.legitimate);
  EXPECT_TRUE(predictor.trained());

  const ml::MetricReport m = predictor.evaluate(fx.adversarial, fx.legitimate);
  EXPECT_GT(m.accuracy, 0.97);
  EXPECT_GT(m.f1, 0.95);
  EXPECT_GT(m.auc, 0.99);
}

TEST(AdversarialPredictorTest, FeedbackRewardSeparatesClasses) {
  const PredictorFixture fx;
  AdversarialPredictor predictor(4, fast_config());
  predictor.train(fx.adversarial, fx.legitimate);

  double adv_mean = 0.0, legit_mean = 0.0;
  for (const auto& row : fx.adversarial.rows_copy())
    adv_mean += predictor.feedback_reward(row);
  for (const auto& row : fx.legitimate.rows_copy())
    legit_mean += predictor.feedback_reward(row);
  adv_mean /= static_cast<double>(fx.adversarial.size());
  legit_mean /= static_cast<double>(fx.legitimate.size());

  // Paper: reward ~100 for adversarial, ~0 for unlabeled traffic.
  EXPECT_GT(adv_mean, 60.0);
  EXPECT_LT(legit_mean, 25.0);
}

TEST(AdversarialPredictorTest, RewardTraceShapeMatchesStream) {
  const PredictorFixture fx;
  AdversarialPredictor predictor(4, fast_config());
  predictor.train(fx.adversarial, fx.legitimate);

  ml::Dataset stream;
  for (std::size_t i = 0; i < 10; ++i) stream.push(fx.adversarial.row_copy(i), 1);
  for (std::size_t i = 0; i < 10; ++i) stream.push(fx.legitimate.row_copy(i), 0);
  std::vector<double> trace(stream.size());
  predictor.feedback_reward_batch(stream.view(), trace);
  ASSERT_EQ(trace.size(), 20u);
  // The batch critic pass is bitwise the per-row feedback reward.
  for (std::size_t i = 0; i < trace.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(trace[i]),
              std::bit_cast<std::uint64_t>(
                  predictor.feedback_reward(stream.row_copy(i))))
        << "row " << i;
  // First half (adversarial) must sit well above the second half.
  double first = 0.0, second = 0.0;
  for (std::size_t i = 0; i < 10; ++i) first += trace[i];
  for (std::size_t i = 10; i < 20; ++i) second += trace[i];
  EXPECT_GT(first / 10.0, second / 10.0 + 40.0);
}

TEST(AdversarialPredictorTest, MeanEpisodeRewardReported) {
  const PredictorFixture fx(100, 100);
  AdversarialPredictor predictor(4, fast_config());
  predictor.train(fx.adversarial, fx.legitimate);
  // Half the stream is adversarial with max reward 100 when flagged.
  EXPECT_GT(predictor.mean_training_episode_reward(), 5.0);
  EXPECT_LT(predictor.mean_training_episode_reward(), 100.0);
}

}  // namespace
}  // namespace drlhmd::rl
