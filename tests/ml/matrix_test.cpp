#include "ml/matrix.hpp"

#include <gtest/gtest.h>

namespace drlhmd::ml {
namespace {

TEST(MatrixTest, ConstructionAndFill) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  for (double v : m.flat()) EXPECT_EQ(v, 1.5);
  EXPECT_TRUE(Matrix{}.empty());
}

TEST(MatrixTest, FromRowsAndAccess) {
  const Matrix m = Matrix::from_rows({{1, 2}, {3, 4}});
  EXPECT_EQ(m(0, 1), 2.0);
  EXPECT_EQ(m(1, 0), 3.0);
  EXPECT_THROW(Matrix::from_rows({{1, 2}, {3}}), std::invalid_argument);
}

TEST(MatrixTest, RowVector) {
  const std::vector<double> v = {1, 2, 3};
  const Matrix m = Matrix::row_vector(v);
  EXPECT_EQ(m.rows(), 1u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m(0, 2), 3.0);
}

TEST(MatrixTest, MatmulKnownResult) {
  const Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  const Matrix b = Matrix::from_rows({{5, 6}, {7, 8}});
  const Matrix c = a.matmul(b);
  EXPECT_EQ(c(0, 0), 19.0);
  EXPECT_EQ(c(0, 1), 22.0);
  EXPECT_EQ(c(1, 0), 43.0);
  EXPECT_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, MatmulShapeMismatchThrows) {
  const Matrix a(2, 3);
  const Matrix b(2, 3);
  EXPECT_THROW(a.matmul(b), std::invalid_argument);
}

TEST(MatrixTest, TransposeMatmulEqualsExplicit) {
  util::Rng rng(1);
  const Matrix a = Matrix::randn(4, 3, 1.0, rng);
  const Matrix b = Matrix::randn(4, 5, 1.0, rng);
  const Matrix fast = a.transpose_matmul(b);
  const Matrix slow = a.transposed().matmul(b);
  ASSERT_TRUE(fast.same_shape(slow));
  for (std::size_t i = 0; i < fast.size(); ++i)
    EXPECT_NEAR(fast.flat()[i], slow.flat()[i], 1e-12);
}

TEST(MatrixTest, MatmulTransposeEqualsExplicit) {
  util::Rng rng(2);
  const Matrix a = Matrix::randn(3, 4, 1.0, rng);
  const Matrix b = Matrix::randn(5, 4, 1.0, rng);
  const Matrix fast = a.matmul_transpose(b);
  const Matrix slow = a.matmul(b.transposed());
  ASSERT_TRUE(fast.same_shape(slow));
  for (std::size_t i = 0; i < fast.size(); ++i)
    EXPECT_NEAR(fast.flat()[i], slow.flat()[i], 1e-12);
}

TEST(MatrixTest, TransposedTwiceIsIdentity) {
  util::Rng rng(3);
  const Matrix a = Matrix::randn(3, 7, 1.0, rng);
  const Matrix b = a.transposed().transposed();
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a.flat()[i], b.flat()[i]);
}

TEST(MatrixTest, ArithmeticOperators) {
  const Matrix a = Matrix::from_rows({{1, 2}});
  const Matrix b = Matrix::from_rows({{3, 5}});
  const Matrix sum = a + b;
  EXPECT_EQ(sum(0, 0), 4.0);
  const Matrix diff = b - a;
  EXPECT_EQ(diff(0, 1), 3.0);
  const Matrix scaled = a * 2.0;
  EXPECT_EQ(scaled(0, 1), 4.0);
  Matrix c = a;
  c += b;
  EXPECT_EQ(c(0, 0), 4.0);
  c -= b;
  EXPECT_EQ(c(0, 0), 1.0);
  c *= 3.0;
  EXPECT_EQ(c(0, 1), 6.0);
}

TEST(MatrixTest, ShapeMismatchOnArithmeticThrows) {
  Matrix a(1, 2);
  const Matrix b(2, 1);
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW(a.hadamard(b), std::invalid_argument);
}

TEST(MatrixTest, Hadamard) {
  const Matrix a = Matrix::from_rows({{2, 3}});
  const Matrix b = Matrix::from_rows({{4, 5}});
  const Matrix h = a.hadamard(b);
  EXPECT_EQ(h(0, 0), 8.0);
  EXPECT_EQ(h(0, 1), 15.0);
}

TEST(MatrixTest, ColumnSums) {
  const Matrix m = Matrix::from_rows({{1, 2}, {3, 4}});
  const Matrix s = m.column_sums();
  EXPECT_EQ(s.rows(), 1u);
  EXPECT_EQ(s(0, 0), 4.0);
  EXPECT_EQ(s(0, 1), 6.0);
}

TEST(MatrixTest, RandnMoments) {
  util::Rng rng(5);
  const Matrix m = Matrix::randn(100, 100, 2.0, rng);
  double sum = 0.0, sum_sq = 0.0;
  for (double v : m.flat()) {
    sum += v;
    sum_sq += v * v;
  }
  const double n = static_cast<double>(m.size());
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 4.0, 0.15);
}

}  // namespace
}  // namespace drlhmd::ml
