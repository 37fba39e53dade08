// CART decision tree with Gini impurity (binary classification).
//
// Also the building block for RandomForest, which enables per-split feature
// subsampling and bootstrap row weighting through the config.
#pragma once

#include "ml/classifier.hpp"
#include "ml/forest_kernel.hpp"

namespace drlhmd::ml {

class ColumnAccess;

struct DecisionTreeConfig {
  std::size_t max_depth = 12;
  std::size_t min_samples_split = 4;
  std::size_t min_samples_leaf = 2;
  /// 0 = consider all features at each split; otherwise sample this many.
  std::size_t max_features = 0;
  std::uint64_t seed = 13;
};

class DecisionTree final : public Classifier {
 public:
  explicit DecisionTree(DecisionTreeConfig config = {});

  void fit(const Dataset& train) override;
  /// Streamed fit: columns are pulled shard by shard through a lazy
  /// ColumnAccess.  The canonical training path — fit(Dataset) routes
  /// through it via the single-shard adapter (zero copy), so streamed and
  /// monolithic fits build byte-identical trees.
  void fit_stream(const DataSource& train) override;
  /// Fit with per-row multiplicities (bootstrap counts); rows with weight 0
  /// are ignored.  Used by RandomForest.
  void fit_weighted(const Dataset& train, std::span<const std::uint32_t> weights);
  /// Column-access flavor of fit_weighted; RandomForest shares one
  /// ColumnAccess (and its lazy column cache) across all member trees.
  void fit_weighted(const ColumnAccess& train,
                    std::span<const std::uint32_t> weights);

  double predict_proba(std::span<const double> features) const override;
  /// Scores through the cut-index kernel (DESIGN.md §12); bitwise
  /// identical to the row path.  Falls back to the row loop when the tree
  /// exceeds the kernel's cut budget.
  void predict_proba_batch(BatchView batch, std::span<double> out) const override;
  using Classifier::predict_proba_batch;
  /// Append this tree's nodes in ForestKernel build form; RandomForest
  /// fuses all member trees into one ensemble kernel.
  void append_kernel_tree(std::vector<std::vector<KernelBuildNode>>& trees) const;
  const ForestKernel& kernel() const { return kernel_; }
  std::string name() const override { return "DT"; }
  std::vector<std::uint8_t> serialize() const override;
  std::unique_ptr<Classifier> clone_untrained() const override;
  bool trained() const override { return !nodes_.empty(); }

  static DecisionTree deserialize(std::span<const std::uint8_t> bytes);

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t depth() const;

 private:
  struct Node {
    // Internal node when feature != kLeaf; children are indices into nodes_.
    static constexpr std::uint32_t kLeaf = 0xFFFFFFFFu;
    std::uint32_t feature = kLeaf;
    double threshold = 0.0;
    std::uint32_t left = 0;
    std::uint32_t right = 0;
    double proba = 0.0;  // P(malware) at leaf
  };

  std::uint32_t build(const ColumnAccess& train,
                      std::span<const std::uint32_t> weights,
                      std::vector<std::size_t>& rows, std::size_t depth,
                      util::Rng& rng);

  /// Rebuild kernel_ from nodes_ (fit/deserialize).
  void build_kernel();

  DecisionTreeConfig config_;
  std::vector<Node> nodes_;
  ForestKernel kernel_;  // derived from nodes_; rebuilt, never serialized
};

}  // namespace drlhmd::ml
