// Random forest: bagged CART trees with per-split feature subsampling.
#pragma once

#include "ml/decision_tree.hpp"

namespace drlhmd::ml {

struct RandomForestConfig {
  std::size_t n_trees = 60;
  DecisionTreeConfig tree{.max_depth = 12,
                          .min_samples_split = 4,
                          .min_samples_leaf = 2,
                          .max_features = 0,  // 0 -> sqrt(width) chosen at fit
                          .seed = 0};
  std::uint64_t seed = 17;
};

class RandomForest final : public Classifier {
 public:
  explicit RandomForest(RandomForestConfig config = {});

  void fit(const Dataset& train) override;
  /// Streamed fit: all member trees share one lazy ColumnAccess over the
  /// source (columns materialize once, under a per-column once_flag, even
  /// with tree fits running in parallel).  Canonical path — fit(Dataset)
  /// routes through it via the single-shard adapter, so streamed and
  /// monolithic fits build byte-identical forests.
  void fit_stream(const DataSource& train) override;
  double predict_proba(std::span<const double> features) const override;
  /// Ensemble kernel: all member trees fused into one contiguous SoA
  /// arena sharing a single per-feature cut grid, so each batch tile
  /// quantizes its values once and every tree replays integer compares.
  /// Per-row tree sums accumulate in row-path order, so scores are bitwise
  /// identical to predict_proba.
  void predict_proba_batch(BatchView batch, std::span<double> out) const override;
  using Classifier::predict_proba_batch;
  const ForestKernel& kernel() const { return kernel_; }
  std::string name() const override { return "RF"; }
  std::vector<std::uint8_t> serialize() const override;
  std::unique_ptr<Classifier> clone_untrained() const override;
  bool trained() const override { return !trees_.empty(); }

  static RandomForest deserialize(std::span<const std::uint8_t> bytes);

  std::size_t tree_count() const { return trees_.size(); }

 private:
  /// Rebuild the fused ensemble kernel from trees_ (fit/deserialize).
  void build_kernel();

  RandomForestConfig config_;
  std::vector<DecisionTree> trees_;
  ForestKernel kernel_;  // derived from trees_; rebuilt, never serialized
};

}  // namespace drlhmd::ml
