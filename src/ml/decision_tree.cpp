#include "ml/decision_tree.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "ml/data_source.hpp"
#include "util/parallel.hpp"

namespace drlhmd::ml {
namespace {

constexpr std::uint8_t kFormatVersion = 1;

/// Nodes at least this large scan candidate features in parallel, each
/// feature over its own sorted row copy.  That path sorts with an explicit
/// row-index tie-break so the permutation — and with it the floating-point
/// accumulation order — is unique; because the gate depends only on the
/// node size (never the thread count), every DRLHMD_THREADS value builds
/// the same tree.  Smaller nodes keep the original shared-buffer scan,
/// preserving the exact trees the seed implementation produced.
constexpr std::size_t kParallelSplitRows = 2048;

/// Gini impurity of a (weighted) binary count pair.
double gini(double n_pos, double n_total) {
  if (n_total <= 0.0) return 0.0;
  const double p = n_pos / n_total;
  return 2.0 * p * (1.0 - p);
}

}  // namespace

DecisionTree::DecisionTree(DecisionTreeConfig config) : config_(config) {
  if (config_.max_depth == 0)
    throw std::invalid_argument("DecisionTree: max_depth must be > 0");
  if (config_.min_samples_split < 2)
    throw std::invalid_argument("DecisionTree: min_samples_split must be >= 2");
  if (config_.min_samples_leaf == 0)
    throw std::invalid_argument("DecisionTree: min_samples_leaf must be > 0");
}

void DecisionTree::fit(const Dataset& train) {
  train.validate();
  fit_stream(DatasetSource(train));
}

void DecisionTree::fit_stream(const DataSource& train) {
  const ColumnAccess cols(train);
  const std::vector<std::uint32_t> weights(cols.rows(), 1);
  fit_weighted(cols, weights);
}

void DecisionTree::fit_weighted(const Dataset& train,
                                std::span<const std::uint32_t> weights) {
  train.validate();
  const DatasetSource source(train);
  fit_weighted(ColumnAccess(source), weights);
}

void DecisionTree::fit_weighted(const ColumnAccess& train,
                                std::span<const std::uint32_t> weights) {
  if (train.rows() == 0)
    throw std::invalid_argument("DecisionTree::fit: empty dataset");
  if (weights.size() != train.rows())
    throw std::invalid_argument("DecisionTree::fit_weighted: weight size mismatch");

  nodes_.clear();
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < train.rows(); ++i)
    if (weights[i] > 0) rows.push_back(i);
  if (rows.empty())
    throw std::invalid_argument("DecisionTree::fit_weighted: all weights zero");
  util::Rng rng(config_.seed);
  build(train, weights, rows, 0, rng);
  build_kernel();
}

std::uint32_t DecisionTree::build(const ColumnAccess& train,
                                  std::span<const std::uint32_t> weights,
                                  std::vector<std::size_t>& rows, std::size_t depth,
                                  util::Rng& rng) {
  double w_total = 0.0, w_pos = 0.0;
  for (std::size_t r : rows) {
    const double w = weights[r];
    w_total += w;
    if (train.label(r) == 1) w_pos += w;
  }

  const auto node_index = static_cast<std::uint32_t>(nodes_.size());
  nodes_.emplace_back();
  nodes_[node_index].proba = w_total > 0.0 ? w_pos / w_total : 0.5;

  const bool pure = w_pos == 0.0 || w_pos == w_total;
  if (pure || depth >= config_.max_depth || rows.size() < config_.min_samples_split)
    return node_index;

  // Candidate features (subsampled for random forests).
  const std::size_t width = train.num_features();
  std::vector<std::size_t> features;
  if (config_.max_features == 0 || config_.max_features >= width) {
    features.resize(width);
    std::iota(features.begin(), features.end(), 0);
  } else {
    features = rng.sample_without_replacement(width, config_.max_features);
  }

  // Exact greedy split search: sort rows per feature, scan boundaries.
  double best_gain = 1e-12;
  std::size_t best_feature = width;
  double best_threshold = 0.0;
  const double parent_impurity = gini(w_pos, w_total);

  if (rows.size() >= kParallelSplitRows) {
    struct FeatureBest {
      double gain = 0.0;
      double threshold = 0.0;
    };
    const std::vector<FeatureBest> bests = util::parallel_map(
        "decision_tree.split_scan", 0, features.size(), 1,
        [&](std::size_t fi) {
          const std::size_t f = features[fi];
          const std::span<const double> colf = train.col(f);
          std::vector<std::size_t> sorted = rows;
          std::sort(sorted.begin(), sorted.end(),
                    [&](std::size_t a, std::size_t b) {
                      const double va = colf[a];
                      const double vb = colf[b];
                      return va < vb || (va == vb && a < b);
                    });
          FeatureBest best;
          double left_total = 0.0, left_pos = 0.0;
          std::size_t left_count = 0;
          for (std::size_t k = 0; k + 1 < sorted.size(); ++k) {
            const std::size_t r = sorted[k];
            const double w = weights[r];
            left_total += w;
            left_count += 1;
            if (train.label(r) == 1) left_pos += w;
            const double v = colf[r];
            const double v_next = colf[sorted[k + 1]];
            if (v == v_next) continue;  // no boundary between equal values
            if (left_count < config_.min_samples_leaf ||
                sorted.size() - left_count < config_.min_samples_leaf)
              continue;
            const double right_total = w_total - left_total;
            const double right_pos = w_pos - left_pos;
            const double weighted_child =
                (left_total * gini(left_pos, left_total) +
                 right_total * gini(right_pos, right_total)) /
                w_total;
            const double gain = parent_impurity - weighted_child;
            if (gain > best.gain) {
              best.gain = gain;
              best.threshold = 0.5 * (v + v_next);
            }
          }
          return best;
        });
    // Reduce in candidate-feature order with strict >: the same winner the
    // single-pass scan would select.
    for (std::size_t fi = 0; fi < features.size(); ++fi) {
      if (bests[fi].gain > best_gain) {
        best_gain = bests[fi].gain;
        best_feature = features[fi];
        best_threshold = bests[fi].threshold;
      }
    }
  } else {
    std::vector<std::size_t> sorted = rows;
    for (std::size_t f : features) {
      const std::span<const double> colf = train.col(f);
      std::sort(sorted.begin(), sorted.end(), [&](std::size_t a, std::size_t b) {
        return colf[a] < colf[b];
      });
      double left_total = 0.0, left_pos = 0.0;
      std::size_t left_count = 0;
      for (std::size_t k = 0; k + 1 < sorted.size(); ++k) {
        const std::size_t r = sorted[k];
        const double w = weights[r];
        left_total += w;
        left_count += 1;
        if (train.label(r) == 1) left_pos += w;
        const double v = colf[r];
        const double v_next = colf[sorted[k + 1]];
        if (v == v_next) continue;  // no boundary between equal values
        if (left_count < config_.min_samples_leaf ||
            sorted.size() - left_count < config_.min_samples_leaf)
          continue;
        const double right_total = w_total - left_total;
        const double right_pos = w_pos - left_pos;
        const double weighted_child =
            (left_total * gini(left_pos, left_total) +
             right_total * gini(right_pos, right_total)) /
            w_total;
        const double gain = parent_impurity - weighted_child;
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = f;
          best_threshold = 0.5 * (v + v_next);
        }
      }
    }
  }

  if (best_feature == width) return node_index;  // no useful split

  std::vector<std::size_t> left_rows, right_rows;
  const std::span<const double> best_col = train.col(best_feature);
  for (std::size_t r : rows) {
    (best_col[r] <= best_threshold ? left_rows : right_rows).push_back(r);
  }
  if (left_rows.empty() || right_rows.empty()) return node_index;

  rows.clear();
  rows.shrink_to_fit();  // release before recursing

  nodes_[node_index].feature = static_cast<std::uint32_t>(best_feature);
  nodes_[node_index].threshold = best_threshold;
  const std::uint32_t left = build(train, weights, left_rows, depth + 1, rng);
  nodes_[node_index].left = left;
  const std::uint32_t right = build(train, weights, right_rows, depth + 1, rng);
  nodes_[node_index].right = right;
  return node_index;
}

double DecisionTree::predict_proba(std::span<const double> features) const {
  if (!trained()) throw std::logic_error("DecisionTree: not trained");
  std::uint32_t idx = 0;
  for (;;) {
    const Node& node = nodes_[idx];
    if (node.feature == Node::kLeaf) return node.proba;
    if (node.feature >= features.size())
      throw std::invalid_argument("DecisionTree: feature width mismatch");
    idx = features[node.feature] <= node.threshold ? node.left : node.right;
  }
}

void DecisionTree::build_kernel() {
  std::vector<std::vector<KernelBuildNode>> trees;
  append_kernel_tree(trees);
  kernel_.build(trees);
}

void DecisionTree::append_kernel_tree(
    std::vector<std::vector<KernelBuildNode>>& trees) const {
  std::vector<KernelBuildNode> tree(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    KernelBuildNode& dst = tree[i];
    if (node.feature == Node::kLeaf) {
      dst.leaf = true;
      dst.value = node.proba;
    } else {
      dst.feature = node.feature;
      dst.threshold = node.threshold;
      dst.left = node.left;
      dst.right = node.right;
    }
  }
  trees.push_back(std::move(tree));
}

void DecisionTree::predict_proba_batch(BatchView batch,
                                       std::span<double> out) const {
  if (!trained()) throw std::logic_error("DecisionTree: not trained");
  check_batch_out(batch, out);
  if (!kernel_.ready()) {  // over the kernel's cut budget
    Classifier::predict_proba_batch(batch, out);
    return;
  }
  // -0.0 is the exact additive identity (0.0 + -0.0 would flip a -0.0
  // leaf's sign), so out[r] is the leaf value itself, as in the row walk.
  std::fill(out.begin(), out.end(), -0.0);
  kernel_.accumulate(batch, out);
}

std::size_t DecisionTree::depth() const {
  if (nodes_.empty()) return 0;
  // Iterative DFS carrying depth.
  std::vector<std::pair<std::uint32_t, std::size_t>> stack{{0, 1}};
  std::size_t max_depth = 0;
  while (!stack.empty()) {
    auto [idx, d] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, d);
    const Node& node = nodes_[idx];
    if (node.feature != Node::kLeaf) {
      stack.push_back({node.left, d + 1});
      stack.push_back({node.right, d + 1});
    }
  }
  return max_depth;
}

std::vector<std::uint8_t> DecisionTree::serialize() const {
  util::ByteWriter w;
  w.write_string("DT");
  w.write_u8(kFormatVersion);
  w.write_u64(nodes_.size());
  for (const Node& n : nodes_) {
    w.write_u32(n.feature);
    w.write_f64(n.threshold);
    w.write_u32(n.left);
    w.write_u32(n.right);
    w.write_f64(n.proba);
  }
  return w.take();
}

DecisionTree DecisionTree::deserialize(std::span<const std::uint8_t> bytes) {
  util::ByteReader r(bytes);
  if (r.read_string() != "DT")
    throw std::invalid_argument("DecisionTree::deserialize: bad magic");
  if (r.read_u8() != kFormatVersion)
    throw std::invalid_argument("DecisionTree::deserialize: bad version");
  DecisionTree tree;
  const std::uint64_t count = r.read_u64();
  tree.nodes_.resize(static_cast<std::size_t>(count));
  for (auto& n : tree.nodes_) {
    n.feature = r.read_u32();
    n.threshold = r.read_f64();
    n.left = r.read_u32();
    n.right = r.read_u32();
    n.proba = r.read_f64();
  }
  tree.build_kernel();
  return tree;
}

std::unique_ptr<Classifier> DecisionTree::clone_untrained() const {
  return std::make_unique<DecisionTree>(config_);
}

}  // namespace drlhmd::ml
