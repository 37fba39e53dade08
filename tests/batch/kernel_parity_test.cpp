// Cut-index kernel vs row-path parity for the tree detectors.
//
// The tree kernels (ForestKernel, DESIGN.md §12) quantize thresholds onto
// a per-feature cut grid that preserves every comparison, so the kernel
// reaches the same leaf as the row walk for every input — including
// NaN/inf — and, with double leaves summed in tree order, returns exactly
// the row path's score.  predict_proba_batch_fast is an alias and must
// agree too.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "ml/decision_tree.hpp"
#include "ml/gbdt.hpp"
#include "ml/random_forest.hpp"
#include "util/parallel.hpp"
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

const std::vector<std::size_t> kWidths = {1, 2, 8};

/// Row-path scores: the oracle every batch result must equal exactly.
std::vector<double> row_scores(const ml::Classifier& model, ml::BatchView view) {
  std::vector<double> scores(view.rows());
  std::vector<double> row(view.cols());
  for (std::size_t i = 0; i < view.rows(); ++i) {
    view.gather_row(i, row);
    scores[i] = model.predict_proba(row);
  }
  return scores;
}

/// Batch scores through both entry points, each equal to the row path.
void expect_exact(const ml::Classifier& model, ml::BatchView view,
                  const char* what) {
  const std::vector<double> exact = row_scores(model, view);
  std::vector<double> batch(view.rows()), fast(view.rows());
  model.predict_proba_batch(view, batch);
  model.predict_proba_batch_fast(view, fast);
  for (std::size_t i = 0; i < exact.size(); ++i) {
    EXPECT_EQ(batch[i], exact[i]) << what << ": row " << i;
    EXPECT_EQ(fast[i], exact[i]) << what << " (fast alias): row " << i;
  }
}

class KernelParity : public ::testing::Test {
 protected:
  void TearDown() override { util::set_parallel_threads(saved_); }

 private:
  std::size_t saved_ = util::parallel_thread_count();
};

TEST_F(KernelParity, DecisionTreeKernelIsFloatRoundedExact) {
  // Named for the float-leaf kernel it once pinned; the kernel now keeps
  // double leaves, so the DT kernel is simply exact.
  ml::DecisionTree tree;
  tree.fit(blobs(150, 1.5, 17));
  ASSERT_TRUE(tree.kernel().ready());
  const ml::Dataset test = blobs(101, 1.5, 91);  // odd count: partial block
  expect_exact(tree, test.view(), "DT");
}

TEST_F(KernelParity, RandomForestFastMatchesExact) {
  ml::RandomForest forest;
  forest.fit(blobs(150, 1.5, 17));
  ASSERT_TRUE(forest.kernel().ready());
  EXPECT_EQ(forest.kernel().tree_count(), forest.tree_count());
  const ml::Dataset test = blobs(101, 1.5, 91);
  for (const std::size_t width : kWidths) {
    util::set_parallel_threads(width);
    expect_exact(forest, test.view(), "RF");
  }
}

TEST_F(KernelParity, GbdtFastMatchesExact) {
  ml::Gbdt gbdt;
  gbdt.fit(blobs(150, 1.5, 17));
  ASSERT_TRUE(gbdt.kernel().ready());
  const ml::Dataset test = blobs(101, 1.5, 91);
  for (const std::size_t width : kWidths) {
    util::set_parallel_threads(width);
    expect_exact(gbdt, test.view(), "LightGBM");
  }
}

TEST_F(KernelParity, OffsetSlicesMatchExactPath) {
  ml::RandomForest forest;
  forest.fit(blobs(120, 1.5, 23));
  const ml::Dataset test = blobs(80, 1.5, 29);

  const struct {
    std::size_t begin, count;
  } slices[] = {{0, 37}, {1, 64}, {33, 127}, {159, 1}, {7, 0}};
  for (const auto& s : slices)
    expect_exact(forest, test.view().rows_slice(s.begin, s.count), "RF slice");
}

TEST_F(KernelParity, NanAndInfReachTheSameLeaf) {
  ml::DecisionTree tree;
  ml::RandomForest forest;
  ml::Gbdt gbdt;
  const ml::Dataset train = blobs(150, 1.5, 41);
  tree.fit(train);
  forest.fit(train);
  gbdt.fit(train);

  // Every row carries a NaN or +/-inf in some column; the cut-index code
  // must route them exactly like `v <= t ? left : right` (NaN and +inf go
  // right, -inf goes left).
  ml::Dataset probe = blobs(40, 1.5, 43);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < probe.size(); ++i) {
    const double special = i % 3 == 0 ? nan : (i % 3 == 1 ? inf : -inf);
    probe.X.mutable_view().col(i % 4)[i] = special;
  }
  expect_exact(tree, probe.view(), "DT NaN/inf");
  expect_exact(forest, probe.view(), "RF NaN/inf");
  expect_exact(gbdt, probe.view(), "LightGBM NaN/inf");
}

TEST_F(KernelParity, SplitVoteForestScoresExactlyOneHalf) {
  // Two single-leaf trees voting 0.1 and 0.9: in double the mean is exactly
  // 0.5 (a malware verdict), while float leaves would give 0.4999999888
  // (benign).  Serving and direct scoring must reach the same verdict.
  const auto leaf_tree = [](double proba) {
    util::ByteWriter w;
    w.write_string("DT");
    w.write_u8(1);
    w.write_u64(1);
    w.write_u32(0xFFFFFFFFu);  // leaf
    w.write_f64(0.0);
    w.write_u32(0);
    w.write_u32(0);
    w.write_f64(proba);
    return w.take();
  };
  util::ByteWriter w;
  w.write_string("RF");
  w.write_u8(1);
  w.write_u64(2);
  w.write_bytes(leaf_tree(0.1));
  w.write_bytes(leaf_tree(0.9));
  const std::vector<std::uint8_t> bytes = w.take();
  const ml::RandomForest forest = ml::RandomForest::deserialize(bytes);
  ASSERT_TRUE(forest.kernel().ready());

  const ml::Dataset probe = blobs(3, 1.5, 67);
  const std::vector<double> row = probe.row_copy(0);
  EXPECT_EQ(forest.predict_proba(row), 0.5);
  EXPECT_EQ(forest.predict(row), 1);

  std::vector<double> batch(probe.size()), fast(probe.size());
  forest.predict_proba_batch(probe.view(), batch);
  forest.predict_proba_batch_fast(probe.view(), fast);
  for (std::size_t i = 0; i < probe.size(); ++i) {
    EXPECT_EQ(batch[i], 0.5) << "row " << i;
    EXPECT_EQ(fast[i], 0.5) << "row " << i;
  }
}

TEST_F(KernelParity, KernelSurvivesSerializationRoundtrip) {
  ml::RandomForest forest;
  forest.fit(blobs(100, 1.5, 59));
  const std::vector<std::uint8_t> bytes = forest.serialize();
  const ml::RandomForest copy = ml::RandomForest::deserialize(bytes);
  ASSERT_TRUE(copy.kernel().ready());  // derived artifact, rebuilt on load

  const ml::Dataset test = blobs(50, 1.5, 61);
  std::vector<double> original(test.size()), restored(test.size());
  forest.predict_proba_batch(test.view(), original);
  copy.predict_proba_batch(test.view(), restored);
  EXPECT_EQ(original, restored);
}

}  // namespace
}  // namespace drlhmd
