// Gradient-boosted decision trees in the LightGBM style: quantile histogram
// binning, leaf-wise (best-first) tree growth with a leaf budget, logistic
// loss, second-order (Newton) leaf values with L2 smoothing and shrinkage.
#pragma once

#include "ml/classifier.hpp"
#include "ml/forest_kernel.hpp"

namespace drlhmd::ml {

struct GbdtConfig {
  std::size_t n_rounds = 80;
  std::size_t max_leaves = 31;
  std::size_t max_depth = 8;
  std::size_t max_bins = 64;
  std::size_t min_samples_leaf = 5;
  double learning_rate = 0.1;
  double lambda_l2 = 1.0;
  double min_gain = 1e-6;
  std::uint64_t seed = 23;
};

class Gbdt final : public Classifier {
 public:
  explicit Gbdt(GbdtConfig config = {});

  void fit(const Dataset& train) override;
  /// Streamed fit: columns are binned one scratch column at a time, and
  /// every boosting round (including the raw-score update, which traverses
  /// the uint8 binned matrix — decision-identical because each split
  /// threshold sits exactly on a bin upper edge) runs off the 1-byte codes.
  /// After binning, the double feature matrix is never touched again, so
  /// training holds width*rows bytes instead of width*rows doubles.
  /// Canonical path — fit(Dataset) routes through it via the single-shard
  /// adapter, so streamed and monolithic fits build byte-identical models.
  void fit_stream(const DataSource& train) override;
  double predict_proba(std::span<const double> features) const override;
  /// Ensemble kernel: all boosting rounds fused into one SoA arena over a
  /// shared per-feature cut grid.  Leaf values add to the base score in
  /// round order, so scores are bitwise identical to
  /// sigmoid(raw_score(row)) per row.
  void predict_proba_batch(BatchView batch, std::span<double> out) const override;
  using Classifier::predict_proba_batch;
  const ForestKernel& kernel() const { return kernel_; }
  std::string name() const override { return "LightGBM"; }
  std::vector<std::uint8_t> serialize() const override;
  std::unique_ptr<Classifier> clone_untrained() const override;
  bool trained() const override { return trained_; }

  static Gbdt deserialize(std::span<const std::uint8_t> bytes);

  std::size_t tree_count() const { return trees_.size(); }

  /// Raw additive score before the sigmoid (log-odds).
  double raw_score(std::span<const double> features) const;

 private:
  struct Node {
    static constexpr std::int32_t kLeaf = -1;
    std::int32_t feature = kLeaf;
    double threshold = 0.0;  // real-valued: go left when x <= threshold
    std::int32_t left = 0;
    std::int32_t right = 0;
    double value = 0.0;  // leaf contribution (already shrunk)
  };
  using Tree = std::vector<Node>;

  Tree grow_tree(const std::vector<std::vector<std::uint8_t>>& binned,
                 const std::vector<std::vector<double>>& bin_uppers,
                 std::span<const double> gradients, std::span<const double> hessians,
                 std::size_t n_rows) const;

  /// Rebuild kernel_ from trees_ (fit/deserialize).
  void build_kernel();

  GbdtConfig config_;
  std::vector<Tree> trees_;
  double base_score_ = 0.0;  // prior log-odds
  bool trained_ = false;
  ForestKernel kernel_;  // derived from trees_; rebuilt, never serialized
};

}  // namespace drlhmd::ml
