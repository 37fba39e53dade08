// Dense row-major matrix of doubles — the numeric workhorse for the ML and
// RL stacks.  Deliberately small: the feature space is 4-35 wide and models
// are tiny, so a cache-friendly naive implementation is both sufficient and
// fully deterministic.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace drlhmd::ml {

/// out (rows x n) = a (rows x depth) * b (depth x n), all row-major raw
/// buffers, `out` distinct from both inputs.  The one i-k-j product loop:
/// each out(i, j) starts at 0.0 and accumulates a(i, k) * b(k, j) over
/// ascending k, skipping k where a(i, k) == 0.0.  Rows write only their own
/// output, so the result is bitwise independent of the pool width.
void matmul_rows(const double* a, std::size_t rows, std::size_t depth,
                 const double* b, std::size_t n, double* out);

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Build from nested vectors (each inner vector is a row).
  static Matrix from_rows(const std::vector<std::vector<double>>& rows);
  /// 1xN row vector.
  static Matrix row_vector(std::span<const double> values);
  /// Gaussian init with the given stddev (He/Xavier handled by caller).
  static Matrix randn(std::size_t rows, std::size_t cols, double stddev,
                      util::Rng& rng);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }
  double& operator()(std::size_t r, std::size_t c) { return at(r, c); }
  double operator()(std::size_t r, std::size_t c) const { return at(r, c); }

  std::span<double> row(std::size_t r) { return {data_.data() + r * cols_, cols_}; }
  std::span<const double> row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }
  std::span<double> flat() { return data_; }
  std::span<const double> flat() const { return data_; }

  /// this (m x k) * other (k x n) -> (m x n) via matmul_rows. Throws on
  /// shape mismatch.
  Matrix matmul(const Matrix& other) const;
  /// this^T * other, without materializing the transpose.
  Matrix transpose_matmul(const Matrix& other) const;
  /// this * other^T.
  Matrix matmul_transpose(const Matrix& other) const;
  Matrix transposed() const;

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double s);
  Matrix operator+(const Matrix& other) const;
  Matrix operator-(const Matrix& other) const;
  Matrix operator*(double s) const;

  /// Elementwise product.
  Matrix hadamard(const Matrix& other) const;

  /// Sum over rows -> 1 x cols.
  Matrix column_sums() const;

  bool same_shape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

 private:
  void require_same_shape(const Matrix& other, const char* op) const;

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace drlhmd::ml
