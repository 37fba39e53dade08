// The paper's "NN" detector: 2 convolutional + 3 fully connected layers
// applied to the 4-wide HPC feature vector (treated as a 1-channel signal).
// Kept architecturally faithful — including its documented weakness on
// tabular data under distribution shift (Table 2: it degenerates under
// adversarial scenarios).
#pragma once

#include "ml/classifier.hpp"
#include "ml/nn.hpp"

namespace drlhmd::ml {

struct ConvNetConfig {
  std::size_t conv1_channels = 8;
  std::size_t conv2_channels = 16;
  std::size_t kernel = 2;
  std::size_t fc1 = 32;
  std::size_t fc2 = 16;
  std::size_t epochs = 40;
  std::size_t batch_size = 64;
  double learning_rate = 1e-3;
  std::uint64_t seed = 37;
};

class ConvNetClassifier final : public Classifier {
 public:
  explicit ConvNetClassifier(ConvNetConfig config = {});

  void fit(const Dataset& train) override;
  /// Streamed fit: minibatch rows are gathered straight out of the shard
  /// views through a RowLocator, so no monolithic matrix is ever built.
  /// Canonical path — fit(Dataset) routes through it via the single-shard
  /// adapter, so streamed and monolithic fits train identical networks.
  void fit_stream(const DataSource& train) override;
  double predict_proba(std::span<const double> features) const override;
  /// Block-batched forward pass (nn::class1_proba_batch).
  void predict_proba_batch(BatchView batch, std::span<double> out) const override;
  using Classifier::predict_proba_batch;
  std::string name() const override { return "NN"; }
  std::vector<std::uint8_t> serialize() const override;
  std::unique_ptr<Classifier> clone_untrained() const override;
  bool trained() const override { return !net_.empty(); }

  static ConvNetClassifier deserialize(std::span<const std::uint8_t> bytes);

  std::size_t param_count() const { return net_.param_count(); }

 private:
  ConvNetConfig config_;
  nn::Network net_;
  std::size_t in_features_ = 0;
};

}  // namespace drlhmd::ml
