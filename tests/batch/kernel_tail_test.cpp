// ForestKernel tail coverage: the 16-lane traversal's partial-lane blocks
// and the 1024-row code tile's partial last tile must be bit-for-bit
// identical to the scalar row path at awkward batch sizes, over non-zero
// BatchView offsets, and in the presence of NaN/inf values (which the
// `v <= threshold` decision routes right/right/left respectively).  A tree
// over the kernel's cut budget must fall back to the row loop, still exact.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "ml/decision_tree.hpp"
#include "ml/gbdt.hpp"
#include "ml/random_forest.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace drlhmd {
namespace {

ml::Dataset blobs(std::size_t n_per_class, double gap, std::uint64_t seed) {
  util::Rng rng(seed);
  ml::Dataset d;
  for (std::size_t i = 0; i < n_per_class; ++i) {
    std::vector<double> benign(4), malware(4);
    for (std::size_t c = 0; c < 4; ++c) {
      benign[c] = rng.normal(0.0, 1.0);
      malware[c] = rng.normal(gap, 1.0);
    }
    d.push(std::move(benign), 0);
    d.push(std::move(malware), 1);
  }
  d.shuffle(rng);
  return d;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Batch sizes around the 16-lane block (a lone row, one short of a full
/// block, one past it) and around the 1024-row code tile.
const std::size_t kTailSizes[] = {1, 15, 17, 1023, 1024, 1025};

/// A DT of `n` internal nodes chained on feature 0 with distinct
/// thresholds (node i: x <= t_i -> leaf, else next internal node), written
/// as serialized bytes.  One cut per node, so n > ForestKernel::kMaxCuts
/// leaves the kernel unbuilt.
ml::DecisionTree chain_tree(std::uint32_t n) {
  util::ByteWriter w;
  w.write_string("DT");
  w.write_u8(1);
  w.write_u64(2 * std::uint64_t{n} + 1);
  for (std::uint32_t i = 0; i < n; ++i) {
    // Internal node at 2i, its left leaf at 2i + 1, next internal at 2i + 2.
    w.write_u32(0);
    w.write_f64(-4.0 + 0.01 * i);
    w.write_u32(2 * i + 1);
    w.write_u32(2 * i + 2);
    w.write_f64(0.0);
    w.write_u32(0xFFFFFFFFu);
    w.write_f64(0.0);
    w.write_u32(0);
    w.write_u32(0);
    w.write_f64(static_cast<double>(i) / n);
  }
  w.write_u32(0xFFFFFFFFu);  // final right leaf
  w.write_f64(0.0);
  w.write_u32(0);
  w.write_u32(0);
  w.write_f64(1.0);
  const std::vector<std::uint8_t> bytes = w.take();
  return ml::DecisionTree::deserialize(bytes);
}

template <typename Model>
void expect_tail_parity(const Model& model, const ml::Dataset& pool,
                        const char* what) {
  for (const std::size_t size : kTailSizes) {
    // Offset 0 and a deliberately odd non-zero base: the slice's column
    // pointers then start mid-storage, which is what the runtime's
    // mid-batch re-score path produces.
    for (const std::size_t offset : {std::size_t{0}, std::size_t{5}}) {
      ASSERT_LE(offset + size, pool.size());
      const ml::BatchView view = pool.X.view().rows_slice(offset, size);
      std::vector<double> batch(size);
      model.predict_proba_batch(view, batch);
      for (std::size_t i = 0; i < size; ++i) {
        const double row = model.predict_proba(pool.row_copy(offset + i));
        EXPECT_TRUE(same_bits(row, batch[i]))
            << what << ": size " << size << " offset " << offset << " row "
            << i << " batch=" << batch[i] << " row-path=" << row;
      }
    }
  }
}

TEST(KernelTail, PartialBlocksMatchScalarPath) {
  const ml::Dataset train = blobs(150, 1.5, 71);
  const ml::Dataset pool = blobs(520, 1.5, 73);

  ml::DecisionTree tree;
  tree.fit(train);
  expect_tail_parity(tree, pool, "DT");

  ml::RandomForest forest;
  forest.fit(train);
  expect_tail_parity(forest, pool, "RF");

  ml::Gbdt gbdt;
  gbdt.fit(train);
  expect_tail_parity(gbdt, pool, "LightGBM");

  const ml::DecisionTree over_budget =
      chain_tree(static_cast<std::uint32_t>(ml::ForestKernel::kMaxCuts) + 1);
  ASSERT_FALSE(over_budget.kernel().ready());
  expect_tail_parity(over_budget, pool, "DT over cut budget");
}

TEST(KernelTail, NanAndInfMatchScalarPathBitForBit) {
  const ml::Dataset train = blobs(150, 1.5, 79);
  ml::Dataset pool = blobs(520, 1.5, 83);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const double special = i % 3 == 0 ? nan : (i % 3 == 1 ? inf : -inf);
    pool.X.mutable_view().col(i % 4)[i] = special;
  }

  ml::DecisionTree tree;
  tree.fit(train);
  expect_tail_parity(tree, pool, "DT NaN/inf");

  ml::RandomForest forest;
  forest.fit(train);
  expect_tail_parity(forest, pool, "RF NaN/inf");

  ml::Gbdt gbdt;
  gbdt.fit(train);
  expect_tail_parity(gbdt, pool, "LightGBM NaN/inf");
}

}  // namespace
}  // namespace drlhmd
