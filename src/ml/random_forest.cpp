#include "ml/random_forest.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ml/data_source.hpp"
#include "util/parallel.hpp"

namespace drlhmd::ml {
namespace {
constexpr std::uint8_t kFormatVersion = 1;
}

RandomForest::RandomForest(RandomForestConfig config) : config_(config) {
  if (config_.n_trees == 0)
    throw std::invalid_argument("RandomForest: n_trees must be > 0");
}

void RandomForest::fit(const Dataset& train) {
  train.validate();
  fit_stream(DatasetSource(train));
}

void RandomForest::fit_stream(const DataSource& train) {
  const ColumnAccess cols(train);
  const std::size_t n = cols.rows();
  if (n == 0) throw std::invalid_argument("RandomForest::fit: empty dataset");

  trees_.clear();
  trees_.reserve(config_.n_trees);
  util::Rng rng(config_.seed);

  DecisionTreeConfig tree_config = config_.tree;
  if (tree_config.max_features == 0) {
    tree_config.max_features = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(
               std::sqrt(static_cast<double>(cols.num_features())))));
  }

  // Draw every tree's bootstrap weights and seed serially first — the rng
  // stream is consumed in exactly the order the old per-tree loop used, so
  // the fitted forest is bitwise identical regardless of thread count.
  std::vector<std::vector<std::uint32_t>> weights(config_.n_trees);
  std::vector<std::uint64_t> seeds(config_.n_trees);
  for (std::size_t t = 0; t < config_.n_trees; ++t) {
    // Bootstrap: multinomial row multiplicities.
    weights[t].assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) ++weights[t][rng.next_below(n)];
    seeds[t] = rng.next();
  }

  // Fit trees into pre-sized slots; each slot depends only on its own
  // pre-drawn state, so scheduling order cannot affect the result.  The
  // shared ColumnAccess cache is once_flag-guarded, so concurrent tree
  // fits materialize each global column exactly once between them.
  trees_.assign(config_.n_trees, DecisionTree(tree_config));
  util::parallel_for("random_forest.fit", 0, config_.n_trees, 1,
                     [&](std::size_t t) {
                       DecisionTreeConfig cfg = tree_config;
                       cfg.seed = seeds[t];
                       DecisionTree tree(cfg);
                       tree.fit_weighted(cols, weights[t]);
                       trees_[t] = std::move(tree);
                     });
  build_kernel();
}

void RandomForest::build_kernel() {
  std::vector<std::vector<KernelBuildNode>> forest;
  forest.reserve(trees_.size());
  for (const auto& tree : trees_) tree.append_kernel_tree(forest);
  kernel_.build(forest);
}

double RandomForest::predict_proba(std::span<const double> features) const {
  if (!trained()) throw std::logic_error("RandomForest: not trained");
  double total = 0.0;
  for (const auto& tree : trees_) total += tree.predict_proba(features);
  return total / static_cast<double>(trees_.size());
}

void RandomForest::predict_proba_batch(BatchView batch,
                                       std::span<double> out) const {
  if (!trained()) throw std::logic_error("RandomForest: not trained");
  check_batch_out(batch, out);
  if (!kernel_.ready()) {  // over the kernel's cut budget
    Classifier::predict_proba_batch(batch, out);
    return;
  }
  std::fill(out.begin(), out.end(), 0.0);
  kernel_.accumulate(batch, out);
  const auto n = static_cast<double>(trees_.size());
  for (double& v : out) v = v / n;
}

std::vector<std::uint8_t> RandomForest::serialize() const {
  util::ByteWriter w;
  w.write_string("RF");
  w.write_u8(kFormatVersion);
  w.write_u64(trees_.size());
  for (const auto& tree : trees_) w.write_bytes(tree.serialize());
  return w.take();
}

RandomForest RandomForest::deserialize(std::span<const std::uint8_t> bytes) {
  util::ByteReader r(bytes);
  if (r.read_string() != "RF")
    throw std::invalid_argument("RandomForest::deserialize: bad magic");
  if (r.read_u8() != kFormatVersion)
    throw std::invalid_argument("RandomForest::deserialize: bad version");
  RandomForest forest;
  const std::uint64_t count = r.read_u64();
  forest.trees_.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t t = 0; t < count; ++t)
    forest.trees_.push_back(DecisionTree::deserialize(r.read_bytes()));
  forest.build_kernel();  // derived artifact: never serialized
  return forest;
}

std::unique_ptr<Classifier> RandomForest::clone_untrained() const {
  return std::make_unique<RandomForest>(config_);
}

}  // namespace drlhmd::ml
