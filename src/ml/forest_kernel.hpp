// Cut-index SoA inference kernel for tree ensembles (DT / RF / GBDT): the
// one batch scoring path of every tree detector.
//
// The per-tree pointer-chasing layouts are fused into one contiguous
// ensemble arena of 8-byte nodes, and every threshold comparison is
// replaced by an integer compare against a per-feature *cut index*:
//
//   cuts[f]  = sorted distinct thresholds used by feature f anywhere in
//              the ensemble;
//   code(x)  = #{ c in cuts[f] : c < x }   (uint16, lower_bound)
//   x <= t   <=>  code(x) < tq             where cuts[f][tq - 1] == t
//
// so the traversal decision `x <= threshold ? left : right` becomes
// `left + (code >= tq)` — branch-free, 8 bytes of node state, and *exact*:
// every double that reaches the comparison lands on the same side as the
// reference path (NaN maps to code 0xFFFF and therefore always goes
// right, matching `v <= t ? 0 : 1`).  Codes are computed once per
// (feature, row) tile and shared by every tree in the ensemble.
//
// Leaf payloads stay double and each row sums them in tree order, the
// order the row-at-a-time `predict_proba` walk uses, so the kernel's output
// is bit-for-bit the row path's.  Its speed over a per-node double compare
// comes from three structural changes:
//   * shared encode — the binary search against the thresholds is hoisted
//     out of the traversal and paid once per (feature, row) tile instead
//     of once per tree level, as interleaved branchless searches that are
//     throughput- rather than latency-bound;
//   * register-lane traversal — 16 rows descend in lockstep as named
//     scalar indices (never spilled), and each level costs one 8-byte
//     node load plus one uint16 code load with the code-tile offset baked
//     into the node, compare, select — no branches, no multiplies;
//   * quantized state — 8-byte nodes and 2-byte codes instead of
//     pointer-linked nodes and 8-byte doubles keep the whole ensemble
//     cache-resident while every tree replays the tile.
// A lone tree (DT) has nothing to share the encode with, so it walks the
// same nodes comparing raw doubles against each node's threshold instead.
//
// The kernel is a derived artifact: rebuilt on fit()/deserialize(), never
// serialized.  Scratch comes from the per-thread arena (zero heap
// allocations in steady state).  See DESIGN.md §12.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/feature_matrix.hpp"

namespace drlhmd::ml {

/// One node of a source tree handed to ForestKernel::build (root at
/// index 0; `left`/`right` are indices within the same tree).
struct KernelBuildNode {
  bool leaf = false;
  std::uint32_t feature = 0;
  double threshold = 0.0;  // decision: go left iff x <= threshold
  std::uint32_t left = 0;
  std::uint32_t right = 0;
  double value = 0.0;  // leaf payload (probability / GBDT leaf value)
};

class ForestKernel {
 public:
  ForestKernel() = default;

  /// Distinct-threshold budget per feature: one more and the uint16 cut
  /// code (with 0xFFFF reserved for NaN) could not index the grid, so
  /// build() refuses and ready() stays false (callers fall back to the
  /// row-at-a-time loop).
  static constexpr std::size_t kMaxCuts = 65000;

  /// Build the quantized ensemble from per-tree node vectors.  Leaves the
  /// kernel unready (without throwing) when the ensemble exceeds the
  /// uint16 feature/cut budgets.
  void build(const std::vector<std::vector<KernelBuildNode>>& trees);

  bool ready() const { return !roots_.empty(); }
  std::size_t tree_count() const { return roots_.size(); }
  std::size_t node_count() const { return nodes_.size(); }
  /// Minimum batch width accepted by accumulate().
  std::size_t required_width() const { return required_width_; }

  /// out[r] += leaf value reached by row r, added tree by tree in build
  /// order.  Caller owns the initial contents of `out`; started from the
  /// row path's start value (0.0 for RF, the base score for GBDT, -0.0,
  /// the exact additive identity, for DT) the result is bit-for-bit the
  /// row path's sum.
  void accumulate(BatchView batch, std::span<double> out) const;

 private:
  // 8-byte quantized node.  Internal: children are DFS-adjacent
  // (right == left + 1), so `left + (code >= tq)` selects the child.
  // Leaf: left == own index - 1, tq == 0 and threshold NaN, so both the
  // encoded step (every code is >= 0) and the direct step (nothing is
  // <= NaN) add 1 and the lane self-loops ("parks") for the rest of the
  // fixed-depth trip.
  struct Node {
    std::uint16_t feature = 0;
    std::uint16_t tq = 0;
    std::uint32_t left = 0;
  };
  static constexpr std::uint16_t kNanCode = 0xFFFF;  // above every tq

  /// Stage 1: quantize tile rows [t0, t0 + tile) onto the cut grid into a
  /// feature-major code tile, codes[f * tile_cap + r].
  void encode_tile(BatchView batch, std::size_t t0, std::size_t tile,
                   std::uint16_t* codes, std::size_t tile_cap) const;
  void accumulate_direct(BatchView batch, std::span<double> out) const;
  void accumulate_scaled(BatchView batch, std::span<double> out) const;
  void accumulate_tiled(BatchView batch, std::span<double> out) const;

  std::vector<Node> nodes_;         // all trees, DFS order, children adjacent
  std::vector<Node> scaled_nodes_;  // mirror with feature := feature * stride
  std::vector<double> leaf_values_;  // per node; 0 for internal nodes
  std::vector<double> thresholds_;   // per node; NaN for leaves
  std::vector<std::uint32_t> roots_;
  std::vector<std::uint32_t> depths_;       // fixed trip count per tree
  std::vector<double> cuts_;                // CSR threshold grid by feature
  std::vector<std::uint32_t> cut_offsets_;  // size n_model_features + 1
  std::size_t required_width_ = 0;
};

}  // namespace drlhmd::ml
