#include "ml/gbdt.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <stdexcept>

#include "ml/data_source.hpp"
#include "util/parallel.hpp"

namespace drlhmd::ml {
namespace {

constexpr std::uint8_t kFormatVersion = 1;

/// Leaf candidates at least this large scan features in parallel.  The
/// per-feature scan is unchanged (same histogram fill order, same bin scan
/// order) and the reduce walks features in ascending order with strict >,
/// so the chosen split is bitwise identical to the serial sweep.
constexpr std::size_t kParallelScanRows = 512;

double sigmoid(double z) {
  if (z >= 0) return 1.0 / (1.0 + std::exp(-z));
  const double e = std::exp(z);
  return e / (1.0 + e);
}

/// Quantile bin upper edges for one feature (ascending, deduplicated).
std::vector<double> make_bin_uppers(std::vector<double> values, std::size_t max_bins) {
  std::sort(values.begin(), values.end());
  std::vector<double> uppers;
  for (std::size_t b = 1; b <= max_bins; ++b) {
    const std::size_t q = (b * values.size()) / max_bins;
    if (q == 0) continue;
    const double v = values[q - 1];
    if (uppers.empty() || v > uppers.back()) uppers.push_back(v);
  }
  // The max value must map into the last bin.
  if (uppers.empty() || uppers.back() < values.back()) uppers.push_back(values.back());
  return uppers;
}

std::uint8_t bin_of(double v, const std::vector<double>& uppers) {
  // First bin whose upper edge >= v.
  const auto it = std::lower_bound(uppers.begin(), uppers.end(), v);
  const std::size_t idx = it == uppers.end() ? uppers.size() - 1
                                             : static_cast<std::size_t>(it - uppers.begin());
  return static_cast<std::uint8_t>(idx);
}

struct SplitDecision {
  double gain = 0.0;
  std::size_t feature = 0;
  std::size_t bin = 0;  // go left when binned value <= bin
  bool valid = false;
};

}  // namespace

Gbdt::Gbdt(GbdtConfig config) : config_(config) {
  if (config_.n_rounds == 0) throw std::invalid_argument("Gbdt: n_rounds must be > 0");
  if (config_.max_leaves < 2) throw std::invalid_argument("Gbdt: max_leaves must be >= 2");
  if (config_.max_bins < 2 || config_.max_bins > 256)
    throw std::invalid_argument("Gbdt: max_bins out of [2, 256]");
  if (config_.learning_rate <= 0.0)
    throw std::invalid_argument("Gbdt: learning_rate must be > 0");
  if (config_.lambda_l2 < 0.0) throw std::invalid_argument("Gbdt: lambda_l2 must be >= 0");
}

void Gbdt::fit(const Dataset& train) {
  train.validate();
  fit_stream(DatasetSource(train));
}

void Gbdt::fit_stream(const DataSource& train) {
  const std::size_t n = train.rows();
  if (n == 0) throw std::invalid_argument("Gbdt::fit: empty dataset");
  const std::size_t width = train.num_features();
  const bool single_shard = train.num_shards() == 1;

  // Labels concatenated once (shard order == global row order).
  std::vector<int> label_storage;
  std::span<const int> y;
  if (single_shard) {
    y = train.labels(0);
  } else {
    label_storage.reserve(n);
    for (std::size_t s = 0; s < train.num_shards(); ++s) {
      const std::span<const int> part = train.labels(s);
      label_storage.insert(label_storage.end(), part.begin(), part.end());
    }
    y = label_storage;
  }

  // Prior log-odds.
  std::size_t pos_count = 0;
  for (int label : y) pos_count += label == 1 ? 1 : 0;
  const double pos = static_cast<double>(pos_count);
  const double p0 = std::clamp(pos / static_cast<double>(n), 1e-6, 1.0 - 1e-6);
  base_score_ = std::log(p0 / (1.0 - p0));
  trees_.clear();

  // Histogram binning (column-major binned matrix).  Each feature's double
  // column is materialized into a chunk-local scratch, binned to 1-byte
  // codes, and dropped — after this pass the rest of the fit (including the
  // per-round raw-score update below) reads only the codes, so peak memory
  // is width*n bytes + one scratch column per worker, never the full double
  // matrix.
  std::vector<std::vector<double>> bin_uppers(width);
  std::vector<std::vector<std::uint8_t>> binned(width,
                                                std::vector<std::uint8_t>(n));
  util::parallel_for_chunks(
      "gbdt.binning", 0, width, 1,
      [&](std::size_t, std::size_t fb, std::size_t fe) {
        std::vector<double> scratch;
        for (std::size_t f = fb; f < fe; ++f) {
          std::span<const double> colf;
          if (single_shard) {
            colf = train.shard(0).col(f);  // zero-copy fast path
          } else {
            scratch.resize(n);
            train.column_into(f, scratch);
            colf = scratch;
          }
          bin_uppers[f] =
              make_bin_uppers({colf.begin(), colf.end()}, config_.max_bins);
          for (std::size_t i = 0; i < n; ++i)
            binned[f][i] = bin_of(colf[i], bin_uppers[f]);
        }
      });

  std::vector<double> raw(n, base_score_);
  std::vector<double> gradients(n), hessians(n);

  for (std::size_t round = 0; round < config_.n_rounds; ++round) {
    util::parallel_for("gbdt.gradients", 0, n, 0, [&](std::size_t i) {
      const double p = sigmoid(raw[i]);
      gradients[i] = p - static_cast<double>(y[i]);
      hessians[i] = std::max(p * (1.0 - p), 1e-12);
    });
    Tree tree = grow_tree(binned, bin_uppers, gradients, hessians, n);
    // Recover each internal node's split bin: grow_tree sets threshold to
    // exactly bin_uppers[feature][bin], so lower_bound lands on that bin.
    std::vector<std::size_t> node_bin(tree.size(), 0);
    for (std::size_t k = 0; k < tree.size(); ++k) {
      if (tree[k].feature == Node::kLeaf) continue;
      const std::vector<double>& uppers =
          bin_uppers[static_cast<std::size_t>(tree[k].feature)];
      node_bin[k] = static_cast<std::size_t>(
          std::lower_bound(uppers.begin(), uppers.end(), tree[k].threshold) -
          uppers.begin());
    }
    // Update raw scores by traversing the binned codes (each row touches
    // only its own slot).  Decision-identical to comparing the double value
    // against the threshold: v <= uppers[bin] iff bin_of(v) <= bin.
    util::parallel_for("gbdt.raw_update", 0, n, 0, [&](std::size_t i) {
      std::int32_t idx = 0;
      for (;;) {
        const Node& node = tree[static_cast<std::size_t>(idx)];
        if (node.feature == Node::kLeaf) {
          raw[i] += node.value;
          break;
        }
        const std::size_t f = static_cast<std::size_t>(node.feature);
        idx = binned[f][i] <= node_bin[static_cast<std::size_t>(idx)]
                  ? node.left
                  : node.right;
      }
    });
    trees_.push_back(std::move(tree));
  }
  trained_ = true;
  build_kernel();
}

Gbdt::Tree Gbdt::grow_tree(const std::vector<std::vector<std::uint8_t>>& binned,
                           const std::vector<std::vector<double>>& bin_uppers,
                           std::span<const double> gradients,
                           std::span<const double> hessians,
                           std::size_t n_rows) const {
  const std::size_t width = binned.size();

  struct LeafCandidate {
    std::vector<std::size_t> rows;
    std::int32_t node_index;
    std::size_t depth;
    SplitDecision split;
    double sum_g = 0.0, sum_h = 0.0;
  };

  Tree tree;
  auto leaf_value = [&](double sum_g, double sum_h) {
    return -config_.learning_rate * sum_g / (sum_h + config_.lambda_l2);
  };
  auto score = [&](double sum_g, double sum_h) {
    return sum_g * sum_g / (sum_h + config_.lambda_l2);
  };

  auto find_best_split = [&](LeafCandidate& cand) {
    cand.split = SplitDecision{};
    if (cand.rows.size() < 2 * config_.min_samples_leaf) return;
    if (cand.depth >= config_.max_depth) return;
    const double parent_score = score(cand.sum_g, cand.sum_h);
    // Best split within one feature; histogram fill and bin scan orders
    // are fixed, so the result does not depend on where this runs.
    auto scan_feature = [&](std::size_t f) {
      SplitDecision best;
      const std::size_t n_bins = bin_uppers[f].size();
      if (n_bins < 2) return best;
      // Histogram accumulation.
      std::vector<double> hist_g(n_bins, 0.0), hist_h(n_bins, 0.0);
      std::vector<std::size_t> hist_n(n_bins, 0);
      for (std::size_t r : cand.rows) {
        const std::uint8_t b = binned[f][r];
        hist_g[b] += gradients[r];
        hist_h[b] += hessians[r];
        ++hist_n[b];
      }
      double left_g = 0.0, left_h = 0.0;
      std::size_t left_n = 0;
      for (std::size_t b = 0; b + 1 < n_bins; ++b) {
        left_g += hist_g[b];
        left_h += hist_h[b];
        left_n += hist_n[b];
        if (left_n < config_.min_samples_leaf) continue;
        if (cand.rows.size() - left_n < config_.min_samples_leaf) break;
        const double gain = score(left_g, left_h) +
                            score(cand.sum_g - left_g, cand.sum_h - left_h) -
                            parent_score;
        if (gain > best.gain && gain > config_.min_gain) {
          best.gain = gain;
          best.feature = f;
          best.bin = b;
          best.valid = true;
        }
      }
      return best;
    };
    std::vector<SplitDecision> per_feature;
    if (cand.rows.size() >= kParallelScanRows) {
      per_feature = util::parallel_map("gbdt.split_scan", 0, width, 1,
                                       scan_feature);
    } else {
      per_feature.reserve(width);
      for (std::size_t f = 0; f < width; ++f)
        per_feature.push_back(scan_feature(f));
    }
    // Ascending-feature reduce with strict >: picks the same (feature, bin)
    // the single-pass sweep would.
    for (const SplitDecision& d : per_feature) {
      if (d.valid && d.gain > cand.split.gain) cand.split = d;
    }
  };

  // Root candidate.
  LeafCandidate root;
  root.rows.resize(n_rows);
  for (std::size_t i = 0; i < n_rows; ++i) root.rows[i] = i;
  for (std::size_t i = 0; i < n_rows; ++i) {
    root.sum_g += gradients[i];
    root.sum_h += hessians[i];
  }
  root.node_index = 0;
  root.depth = 0;
  tree.emplace_back();
  tree[0].value = leaf_value(root.sum_g, root.sum_h);
  find_best_split(root);

  std::vector<LeafCandidate> leaves;
  leaves.push_back(std::move(root));
  std::size_t n_leaves = 1;

  while (n_leaves < config_.max_leaves) {
    // Leaf-wise growth: pick the candidate with the best gain.
    std::size_t best = leaves.size();
    double best_gain = config_.min_gain;
    for (std::size_t i = 0; i < leaves.size(); ++i) {
      if (leaves[i].split.valid && leaves[i].split.gain > best_gain) {
        best_gain = leaves[i].split.gain;
        best = i;
      }
    }
    if (best == leaves.size()) break;

    LeafCandidate cand = std::move(leaves[best]);
    leaves.erase(leaves.begin() + static_cast<std::ptrdiff_t>(best));

    LeafCandidate left, right;
    left.depth = right.depth = cand.depth + 1;
    for (std::size_t r : cand.rows) {
      if (binned[cand.split.feature][r] <= cand.split.bin) {
        left.rows.push_back(r);
        left.sum_g += gradients[r];
        left.sum_h += hessians[r];
      } else {
        right.rows.push_back(r);
        right.sum_g += gradients[r];
        right.sum_h += hessians[r];
      }
    }

    // Convert the leaf into an internal node.
    Node& node = tree[static_cast<std::size_t>(cand.node_index)];
    node.feature = static_cast<std::int32_t>(cand.split.feature);
    node.threshold = bin_uppers[cand.split.feature][cand.split.bin];
    node.left = static_cast<std::int32_t>(tree.size());
    node.right = static_cast<std::int32_t>(tree.size() + 1);
    left.node_index = node.left;
    right.node_index = node.right;
    tree.emplace_back();
    tree.back().value = leaf_value(left.sum_g, left.sum_h);
    tree.emplace_back();
    tree.back().value = leaf_value(right.sum_g, right.sum_h);

    find_best_split(left);
    find_best_split(right);
    leaves.push_back(std::move(left));
    leaves.push_back(std::move(right));
    ++n_leaves;
  }

  return tree;
}

double Gbdt::raw_score(std::span<const double> features) const {
  if (!trained_) throw std::logic_error("Gbdt: not trained");
  double total = base_score_;
  for (const Tree& tree : trees_) {
    std::int32_t idx = 0;
    for (;;) {
      const Node& node = tree[static_cast<std::size_t>(idx)];
      if (node.feature == Node::kLeaf) {
        total += node.value;
        break;
      }
      if (static_cast<std::size_t>(node.feature) >= features.size())
        throw std::invalid_argument("Gbdt: feature width mismatch");
      idx = features[static_cast<std::size_t>(node.feature)] <= node.threshold
                ? node.left
                : node.right;
    }
  }
  return total;
}

double Gbdt::predict_proba(std::span<const double> features) const {
  return sigmoid(raw_score(features));
}

void Gbdt::build_kernel() {
  std::vector<std::vector<KernelBuildNode>> forest(trees_.size());
  for (std::size_t t = 0; t < trees_.size(); ++t) {
    const Tree& tree = trees_[t];
    forest[t].resize(tree.size());
    for (std::size_t i = 0; i < tree.size(); ++i) {
      const Node& node = tree[i];
      KernelBuildNode& dst = forest[t][i];
      if (node.feature == Node::kLeaf) {
        dst.leaf = true;
        dst.value = node.value;
      } else {
        dst.feature = static_cast<std::uint32_t>(node.feature);
        dst.threshold = node.threshold;
        dst.left = static_cast<std::uint32_t>(node.left);
        dst.right = static_cast<std::uint32_t>(node.right);
      }
    }
  }
  kernel_.build(forest);
}

void Gbdt::predict_proba_batch(BatchView batch, std::span<double> out) const {
  if (!trained_) throw std::logic_error("Gbdt: not trained");
  check_batch_out(batch, out);
  if (!kernel_.ready()) {  // over the kernel's cut budget
    Classifier::predict_proba_batch(batch, out);
    return;
  }
  std::fill(out.begin(), out.end(), base_score_);
  kernel_.accumulate(batch, out);
  for (double& v : out) v = sigmoid(v);
}

std::vector<std::uint8_t> Gbdt::serialize() const {
  util::ByteWriter w;
  w.write_string("GBDT");
  w.write_u8(kFormatVersion);
  w.write_f64(base_score_);
  w.write_u64(trees_.size());
  for (const Tree& tree : trees_) {
    w.write_u64(tree.size());
    for (const Node& n : tree) {
      w.write_i64(n.feature);
      w.write_f64(n.threshold);
      w.write_i64(n.left);
      w.write_i64(n.right);
      w.write_f64(n.value);
    }
  }
  return w.take();
}

Gbdt Gbdt::deserialize(std::span<const std::uint8_t> bytes) {
  util::ByteReader r(bytes);
  if (r.read_string() != "GBDT")
    throw std::invalid_argument("Gbdt::deserialize: bad magic");
  if (r.read_u8() != kFormatVersion)
    throw std::invalid_argument("Gbdt::deserialize: bad version");
  Gbdt model;
  model.base_score_ = r.read_f64();
  const std::uint64_t n_trees = r.read_u64();
  model.trees_.resize(static_cast<std::size_t>(n_trees));
  for (auto& tree : model.trees_) {
    tree.resize(static_cast<std::size_t>(r.read_u64()));
    for (auto& n : tree) {
      n.feature = static_cast<std::int32_t>(r.read_i64());
      n.threshold = r.read_f64();
      n.left = static_cast<std::int32_t>(r.read_i64());
      n.right = static_cast<std::int32_t>(r.read_i64());
      n.value = r.read_f64();
    }
  }
  model.trained_ = true;
  model.build_kernel();
  return model;
}

std::unique_ptr<Classifier> Gbdt::clone_untrained() const {
  return std::make_unique<Gbdt>(config_);
}

}  // namespace drlhmd::ml
