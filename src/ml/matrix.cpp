#include "ml/matrix.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/parallel.hpp"

namespace drlhmd::ml {
namespace {

// Below kParallelMinDim on any dimension the parallel setup costs more than
// the serial loop (single-sample inference etc.); kGrain is output rows per
// chunk.
constexpr std::size_t kParallelMinDim = 8;
constexpr std::size_t kGrain = 16;

}  // namespace

// Cache-line aligned entry: this loop is the predictor critic's arithmetic,
// the largest share of serving time, and its speed otherwise follows the
// size of unrelated code linked before it (single traced serve_peak runs
// read 2.5, 3.3 and 3.8 us of process_batch per row with its start 0, 16
// and 48 bytes past a cache line).
[[gnu::aligned(64)]] void matmul_rows(const double* a, std::size_t rows,
                                      std::size_t depth, const double* b,
                                      std::size_t n, double* out) {
  std::fill(out, out + rows * n, 0.0);
  // The zero test sits on a(i, k) once per B row, leaving the contiguous j
  // sweep free to vectorize.
  auto row_product = [&](std::size_t i) {
    const double* arow = a + i * depth;
    double* orow = out + i * n;
    for (std::size_t k = 0; k < depth; ++k) {
      const double aik = arow[k];
      if (aik == 0.0) continue;
      const double* brow = b + k * n;
      for (std::size_t j = 0; j < n; ++j) orow[j] += aik * brow[j];
    }
  };
  if (rows < kParallelMinDim || depth < kParallelMinDim ||
      n < kParallelMinDim) {
    for (std::size_t i = 0; i < rows; ++i) row_product(i);
  } else {
    util::parallel_for("matrix.matmul", 0, rows, kGrain, row_product);
  }
}

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix Matrix::from_rows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return {};
  Matrix m(rows.size(), rows.front().size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].size() != m.cols_)
      throw std::invalid_argument("Matrix::from_rows: ragged input");
    for (std::size_t c = 0; c < m.cols_; ++c) m.at(r, c) = rows[r][c];
  }
  return m;
}

Matrix Matrix::row_vector(std::span<const double> values) {
  Matrix m(1, values.size());
  for (std::size_t c = 0; c < values.size(); ++c) m.at(0, c) = values[c];
  return m;
}

Matrix Matrix::randn(std::size_t rows, std::size_t cols, double stddev,
                     util::Rng& rng) {
  Matrix m(rows, cols);
  for (auto& v : m.data_) v = rng.normal(0.0, stddev);
  return m;
}

void Matrix::require_same_shape(const Matrix& other, const char* op) const {
  if (!same_shape(other))
    throw std::invalid_argument(std::string("Matrix::") + op + ": shape mismatch (" +
                                std::to_string(rows_) + "x" + std::to_string(cols_) +
                                " vs " + std::to_string(other.rows_) + "x" +
                                std::to_string(other.cols_) + ")");
}

Matrix Matrix::matmul(const Matrix& other) const {
  if (cols_ != other.rows_)
    throw std::invalid_argument("Matrix::matmul: inner dimension mismatch");
  Matrix out(rows_, other.cols_);
  matmul_rows(data_.data(), rows_, cols_, other.data_.data(), other.cols_,
              out.data_.data());
  return out;
}

Matrix Matrix::transpose_matmul(const Matrix& other) const {
  if (rows_ != other.rows_)
    throw std::invalid_argument("Matrix::transpose_matmul: row mismatch");
  Matrix out(cols_, other.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* arow = data_.data() + r * cols_;
    const double* brow = other.data_.data() + r * other.cols_;
    for (std::size_t i = 0; i < cols_; ++i) {
      const double a = arow[i];
      if (a == 0.0) continue;
      double* orow = out.data_.data() + i * other.cols_;
      for (std::size_t j = 0; j < other.cols_; ++j) orow[j] += a * brow[j];
    }
  }
  return out;
}

Matrix Matrix::matmul_transpose(const Matrix& other) const {
  if (cols_ != other.cols_)
    throw std::invalid_argument("Matrix::matmul_transpose: column mismatch");
  Matrix out(rows_, other.rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* arow = data_.data() + i * cols_;
    for (std::size_t j = 0; j < other.rows_; ++j) {
      const double* brow = other.data_.data() + j * other.cols_;
      double acc = 0.0;
      for (std::size_t k = 0; k < cols_; ++k) acc += arow[k] * brow[k];
      out.at(i, j) = acc;
    }
  }
  return out;
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) out.at(c, r) = at(r, c);
  return out;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  require_same_shape(other, "operator+=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  require_same_shape(other, "operator-=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (auto& v : data_) v *= s;
  return *this;
}

Matrix Matrix::operator+(const Matrix& other) const {
  Matrix out = *this;
  out += other;
  return out;
}

Matrix Matrix::operator-(const Matrix& other) const {
  Matrix out = *this;
  out -= other;
  return out;
}

Matrix Matrix::operator*(double s) const {
  Matrix out = *this;
  out *= s;
  return out;
}

Matrix Matrix::hadamard(const Matrix& other) const {
  require_same_shape(other, "hadamard");
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] *= other.data_[i];
  return out;
}

Matrix Matrix::column_sums() const {
  Matrix out(1, cols_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) out.at(0, c) += at(r, c);
  return out;
}

}  // namespace drlhmd::ml
