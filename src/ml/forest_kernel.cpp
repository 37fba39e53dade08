#include "ml/forest_kernel.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/arena.hpp"

namespace drlhmd::ml {
namespace {

// Rows per code tile: 4 features x 1024 codes = 8 KB of uint16 plus the
// source columns stay L1/L2-resident while every tree replays the tile.
// Also the compile-time stride of the feature-major code tile, so the hot
// loop's code address is one indexed load instead of a runtime multiply.
constexpr std::size_t kTile = 1024;
// Rows that descend each tree in lockstep.
constexpr std::size_t kLanes = 16;

// Independent branchless binary searches advanced in lockstep by the
// encode stage.  One search is a latency-bound chain (every probe address
// depends on the previous compare), so interleaving kProbeLanes of them
// turns the encode from log2(n) serial round-trips per row into
// throughput-bound work shared across rows — the same trick the traversal
// plays with its node chains.
constexpr std::size_t kProbeLanes = 8;

// `step` if `below`, else 0, as a mask: GCC turns the equivalent ternary
// into a data-dependent branch, which random probe values mispredict about
// half the time.
inline std::uint32_t step_if(bool below, std::uint32_t step) {
  return step & (0u - static_cast<std::uint32_t>(below));
}

// Branchless lower_bound: #{ cuts[i] < v } in log2(n) predictable steps.
// Requires n >= 1.  NaN compares false everywhere and returns 0; callers
// special-case it.
inline std::uint32_t count_below(const double* cuts, std::uint32_t n,
                                 double v) {
  const double* base = cuts;
  std::uint32_t len = n;
  while (len > 1) {
    const std::uint32_t half = len / 2;
    base += step_if(base[half - 1] < v, half);
    len -= half;
  }
  return static_cast<std::uint32_t>(base - cuts) + step_if(base[0] < v, 1);
}

}  // namespace

void ForestKernel::build(const std::vector<std::vector<KernelBuildNode>>& trees) {
  nodes_.clear();
  scaled_nodes_.clear();
  leaf_values_.clear();
  thresholds_.clear();
  roots_.clear();
  depths_.clear();
  cuts_.clear();
  cut_offsets_.clear();
  required_width_ = 0;
  if (trees.empty()) return;

  // Pass 1: the per-feature cut grid (sorted distinct thresholds).
  std::size_t n_features = 1;  // leaves carry feature 0; always have codes
  for (const auto& tree : trees)
    for (const KernelBuildNode& node : tree)
      if (!node.leaf)
        n_features = std::max(n_features, static_cast<std::size_t>(node.feature) + 1);
  if (n_features > 0xFFFF) return;  // feature index must fit the uint16 node

  std::vector<std::vector<double>> grid(n_features);
  for (const auto& tree : trees)
    for (const KernelBuildNode& node : tree)
      if (!node.leaf) grid[node.feature].push_back(node.threshold);
  for (auto& cuts : grid) {
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    if (cuts.size() > kMaxCuts) return;  // uint16 code budget exceeded
  }
  cut_offsets_.reserve(n_features + 1);
  cut_offsets_.push_back(0);
  for (const auto& cuts : grid) {
    cuts_.insert(cuts_.end(), cuts.begin(), cuts.end());
    cut_offsets_.push_back(static_cast<std::uint32_t>(cuts_.size()));
  }

  // Pass 2: flatten each tree with DFS-adjacent children and quantized
  // thresholds; record the fixed lockstep trip count per tree.
  std::size_t total_nodes = 0;
  for (const auto& tree : trees) total_nodes += tree.size();
  nodes_.reserve(total_nodes);
  leaf_values_.reserve(total_nodes);
  thresholds_.reserve(total_nodes);
  roots_.reserve(trees.size());
  depths_.reserve(trees.size());

  std::vector<std::uint32_t> remap;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> stack;  // (old, depth)
  for (const auto& tree : trees) {
    if (tree.empty())
      throw std::invalid_argument("ForestKernel::build: empty tree");
    const auto base = static_cast<std::uint32_t>(nodes_.size());
    // Allocate new slots: root first, then child pairs in visit order so
    // right == left + 1 always holds.
    remap.assign(tree.size(), 0);
    std::uint32_t next = 1;
    std::uint32_t depth = 0;
    stack.clear();
    stack.push_back({0, 0});
    while (!stack.empty()) {
      const auto [old, d] = stack.back();
      stack.pop_back();
      const KernelBuildNode& node = tree[old];
      if (node.leaf) {
        depth = std::max(depth, d);
        continue;
      }
      remap[node.left] = next++;
      remap[node.right] = next++;
      stack.push_back({node.right, d + 1});
      stack.push_back({node.left, d + 1});
    }
    if (next != tree.size())
      throw std::invalid_argument("ForestKernel::build: malformed tree");
    roots_.push_back(base);
    depths_.push_back(depth);

    nodes_.resize(base + tree.size());
    leaf_values_.resize(base + tree.size(), 0.0);
    thresholds_.resize(base + tree.size(),
                       std::numeric_limits<double>::quiet_NaN());
    for (std::size_t old = 0; old < tree.size(); ++old) {
      const KernelBuildNode& src = tree[old];
      const std::uint32_t slot = base + remap[old];
      Node& dst = nodes_[slot];
      if (src.leaf) {
        // Self-loop: the step always adds 1 (uint32 wrap keeps slot 0 valid).
        dst.left = slot - 1;
        leaf_values_[slot] = src.value;
        continue;
      }
      const double* cuts = cuts_.data() + cut_offsets_[src.feature];
      const double* end = cuts_.data() + cut_offsets_[src.feature + 1];
      const double* hit = std::lower_bound(cuts, end, src.threshold);
      dst.feature = static_cast<std::uint16_t>(src.feature);
      dst.tq = static_cast<std::uint16_t>(hit - cuts + 1);
      dst.left = base + remap[src.left];
      thresholds_[slot] = src.threshold;
      required_width_ = std::max(required_width_,
                                 static_cast<std::size_t>(src.feature) + 1);
    }
  }

  // Scaled-node mirror (feature index pre-multiplied by the code-tile
  // stride, so the hot loop adds it straight to the lane offset).
  // feature * kTile + lane must fit the uint16 field: up to 64 features at
  // the 1024-row tile stride; wider ensembles take the tiled path.
  if (n_features * kTile <= 65536) {
    scaled_nodes_ = nodes_;
    for (Node& node : scaled_nodes_)
      node.feature = static_cast<std::uint16_t>(node.feature * kTile);
  }
}

void ForestKernel::encode_tile(BatchView batch, std::size_t t0,
                               std::size_t tile, std::uint16_t* codes,
                               std::size_t tile_cap) const {
  const std::size_t n_features = cut_offsets_.size() - 1;
  for (std::size_t f = 0; f < n_features; ++f) {
    std::uint16_t* const crow = codes + f * tile_cap;
    const std::uint32_t n_cuts = cut_offsets_[f + 1] - cut_offsets_[f];
    if (n_cuts == 0) {  // feature unused by any split: lanes never branch on it
      std::fill(crow, crow + tile, std::uint16_t{0});
      continue;
    }
    const double* const cuts = cuts_.data() + cut_offsets_[f];
    const double* const col = batch.col(f).data() + t0;
    std::size_t r = 0;
    for (; r + kProbeLanes <= tile; r += kProbeLanes) {
      const double* base[kProbeLanes];
      double v[kProbeLanes];
      for (std::size_t g = 0; g < kProbeLanes; ++g) {
        v[g] = col[r + g];
        base[g] = cuts;
      }
      std::uint32_t len = n_cuts;
      while (len > 1) {
        const std::uint32_t half = len / 2;
        for (std::size_t g = 0; g < kProbeLanes; ++g)
          base[g] += step_if(base[g][half - 1] < v[g], half);
        len -= half;
      }
      for (std::size_t g = 0; g < kProbeLanes; ++g) {
        const std::uint32_t code = static_cast<std::uint32_t>(base[g] - cuts) +
                                   step_if(base[g][0] < v[g], 1);
        // NaN compares false: always right, like v <= t.
        crow[r + g] = static_cast<std::uint16_t>(
            std::isnan(v[g]) ? kNanCode : code);
      }
    }
    for (; r < tile; ++r) {
      const double v = col[r];
      crow[r] = static_cast<std::uint16_t>(
          std::isnan(v) ? kNanCode : count_below(cuts, n_cuts, v));
    }
  }
}

// Fast path (<= 64 model features): the scaled-node mirror folds the
// feature-to-code-tile offset into the node itself, so one traversal step
// is  load node -> load code (one indexed address) -> compare -> select.
// The 16 named lane indices stay register-resident — an array would force
// the compiler to spill each index to the stack between levels, roughly
// doubling the loads per step.
void ForestKernel::accumulate_scaled(BatchView batch,
                                     std::span<double> out) const {
  const std::size_t rows = batch.rows();
  const std::size_t n_features = cut_offsets_.size() - 1;
  util::ArenaScope scope(util::scratch_arena());
  auto codes = scope.alloc<std::uint16_t>(n_features * kTile);

  const Node* const nodes = scaled_nodes_.data();
  const double* const leaves = leaf_values_.data();
  for (std::size_t t0 = 0; t0 < rows; t0 += kTile) {
    const std::size_t tile = std::min(kTile, rows - t0);
    encode_tile(batch, t0, tile, codes.data(), kTile);

    // Tree-major lockstep traversal.  Tree loop outside the lane loop
    // keeps each tree's node span streaming through cache once per tile;
    // accumulation order over trees matches the row path.
    for (std::size_t t = 0; t < roots_.size(); ++t) {
      const std::uint32_t root = roots_[t];
      const std::uint32_t depth = depths_[t];
      std::size_t r0 = 0;
      for (; r0 + kLanes <= tile; r0 += kLanes) {
        const std::uint16_t* const ctile = codes.data() + r0;
        std::uint32_t i0 = root, i1 = root, i2 = root, i3 = root, i4 = root,
                      i5 = root, i6 = root, i7 = root, i8 = root, i9 = root,
                      i10 = root, i11 = root, i12 = root, i13 = root,
                      i14 = root, i15 = root;
        for (std::uint32_t d = 0; d < depth; ++d) {
#define DRLHMD_FK_LANE(k)                                              \
  {                                                                    \
    const Node n = nodes[i##k];                                        \
    i##k = n.left + (ctile[n.feature + k] >= n.tq ? 1u : 0u);          \
  }
          DRLHMD_FK_LANE(0) DRLHMD_FK_LANE(1) DRLHMD_FK_LANE(2)
          DRLHMD_FK_LANE(3) DRLHMD_FK_LANE(4) DRLHMD_FK_LANE(5)
          DRLHMD_FK_LANE(6) DRLHMD_FK_LANE(7) DRLHMD_FK_LANE(8)
          DRLHMD_FK_LANE(9) DRLHMD_FK_LANE(10) DRLHMD_FK_LANE(11)
          DRLHMD_FK_LANE(12) DRLHMD_FK_LANE(13) DRLHMD_FK_LANE(14)
          DRLHMD_FK_LANE(15)
#undef DRLHMD_FK_LANE
        }
        double* const o = out.data() + t0 + r0;
        o[0] += leaves[i0];
        o[1] += leaves[i1];
        o[2] += leaves[i2];
        o[3] += leaves[i3];
        o[4] += leaves[i4];
        o[5] += leaves[i5];
        o[6] += leaves[i6];
        o[7] += leaves[i7];
        o[8] += leaves[i8];
        o[9] += leaves[i9];
        o[10] += leaves[i10];
        o[11] += leaves[i11];
        o[12] += leaves[i12];
        o[13] += leaves[i13];
        o[14] += leaves[i14];
        o[15] += leaves[i15];
      }
      if (r0 < tile) {  // partial-lane tail (last tile only)
        const std::size_t count = tile - r0;
        const std::uint16_t* const ctile = codes.data() + r0;
        std::uint32_t idx[kLanes];
        for (std::size_t l = 0; l < count; ++l) idx[l] = root;
        for (std::uint32_t d = 0; d < depth; ++d) {
          for (std::size_t l = 0; l < count; ++l) {
            const Node n = nodes[idx[l]];
            idx[l] = n.left + (ctile[n.feature + l] >= n.tq ? 1u : 0u);
          }
        }
        for (std::size_t l = 0; l < count; ++l)
          out[t0 + r0 + l] += leaves[idx[l]];
      }
    }
  }
}

// General path (> 64 model features): same structure, but the feature
// offset into the code tile is computed per step (kTile is a compile-time
// constant, so the multiply is still a shift).
void ForestKernel::accumulate_tiled(BatchView batch,
                                    std::span<double> out) const {
  const std::size_t rows = batch.rows();
  const std::size_t n_features = cut_offsets_.size() - 1;
  util::ArenaScope scope(util::scratch_arena());
  auto codes = scope.alloc<std::uint16_t>(n_features * kTile);

  const Node* const nodes = nodes_.data();
  const double* const leaves = leaf_values_.data();
  for (std::size_t t0 = 0; t0 < rows; t0 += kTile) {
    const std::size_t tile = std::min(kTile, rows - t0);
    encode_tile(batch, t0, tile, codes.data(), kTile);

    for (std::size_t t = 0; t < roots_.size(); ++t) {
      const std::uint32_t root = roots_[t];
      const std::uint32_t depth = depths_[t];
      for (std::size_t r0 = 0; r0 < tile; r0 += kLanes) {
        const std::size_t count = std::min(kLanes, tile - r0);
        std::uint32_t idx[kLanes];
        const std::uint16_t* const ctile = codes.data() + r0;
        for (std::size_t l = 0; l < count; ++l) idx[l] = root;
        for (std::uint32_t d = 0; d < depth; ++d) {
          for (std::size_t l = 0; l < count; ++l) {
            const Node n = nodes[idx[l]];
            idx[l] =
                n.left + (ctile[n.feature * kTile + l] >= n.tq ? 1u : 0u);
          }
        }
        for (std::size_t l = 0; l < count; ++l)
          out[t0 + r0 + l] += leaves[idx[l]];
      }
    }
  }
}

// Direct path (a lone tree, e.g. DT): the encode stage pays one binary
// search per (feature, row) that only one traversal would reuse, so it
// costs more than it saves.  Each step instead compares the raw double
// against the node's own threshold: `v <= t ? left : right`, NaN going
// right.  Same nodes, same leaves.
void ForestKernel::accumulate_direct(BatchView batch,
                                     std::span<double> out) const {
  const std::size_t rows = batch.rows();
  const double* const col0 = batch.col(0).data();
  const std::size_t stride = batch.stride();
  const Node* const nodes = nodes_.data();
  const double* const thresholds = thresholds_.data();
  const double* const leaves = leaf_values_.data();
  for (std::size_t t = 0; t < roots_.size(); ++t) {
    const std::uint32_t root = roots_[t];
    const std::uint32_t depth = depths_[t];
    for (std::size_t r0 = 0; r0 < rows; r0 += kLanes) {
      const std::size_t count = std::min(kLanes, rows - r0);
      const double* const x = col0 + r0;
      std::uint32_t idx[kLanes];
      for (std::size_t l = 0; l < count; ++l) idx[l] = root;
      const auto descend = [&](std::size_t l) {
        const Node n = nodes[idx[l]];
        const bool left = x[n.feature * stride + l] <= thresholds[idx[l]];
        idx[l] = n.left + (left ? 0u : 1u);
      };
      for (std::uint32_t d = 0; d < depth; ++d) {
        if (count == kLanes) {  // constant trip count: fully unrolled
          for (std::size_t l = 0; l < kLanes; ++l) descend(l);
        } else {
          for (std::size_t l = 0; l < count; ++l) descend(l);
        }
      }
      for (std::size_t l = 0; l < count; ++l) out[r0 + l] += leaves[idx[l]];
    }
  }
}

void ForestKernel::accumulate(BatchView batch, std::span<double> out) const {
  if (!ready()) throw std::logic_error("ForestKernel::accumulate: not built");
  if (out.size() != batch.rows())
    throw std::invalid_argument("ForestKernel::accumulate: out size mismatch");
  if (batch.rows() == 0) return;
  if (batch.cols() < required_width_)
    throw std::invalid_argument("ForestKernel::accumulate: feature width mismatch");
  if (roots_.size() == 1)
    accumulate_direct(batch, out);
  else if (!scaled_nodes_.empty())
    accumulate_scaled(batch, out);
  else
    accumulate_tiled(batch, out);
}

}  // namespace drlhmd::ml
