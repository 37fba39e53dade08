// MLP detector (paper's best-performing classical model): Dense+ReLU stack
// with a 2-way softmax head, trained with minibatch Adam.
#pragma once

#include "ml/classifier.hpp"
#include "ml/nn.hpp"

namespace drlhmd::ml {

struct MlpConfig {
  std::vector<std::size_t> hidden = {64, 64};
  std::size_t epochs = 60;
  std::size_t batch_size = 64;
  double learning_rate = 1e-3;
  std::uint64_t seed = 31;
};

class MlpClassifier final : public Classifier {
 public:
  explicit MlpClassifier(MlpConfig config = {});

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
  std::string name() const override { return "MLP"; }
  std::vector<std::uint8_t> serialize() const override;
  std::unique_ptr<Classifier> clone_untrained() const override;
  bool trained() const override { return !net_.empty(); }

  static MlpClassifier deserialize(std::span<const std::uint8_t> bytes);

  std::size_t param_count() const { return net_.param_count(); }

 private:
  MlpConfig config_;
  nn::Network net_;  // const paths use infer_rows(), so no mutable needed
  std::size_t in_features_ = 0;
};

}  // namespace drlhmd::ml
