// Minimal feed-forward neural-network stack with reverse-mode gradients and
// Adam, shared by three consumers:
//   * MlpClassifier        (paper's "MLP" detector),
//   * ConvNetClassifier    (paper's "NN": 2 conv + 3 FC layers),
//   * rl::A2C              (actor and critic, 4 hidden layers each).
//
// Each layer has one forward implementation, infer_rows() over raw
// row-major buffers.  Training forward(), one-row predict and batch predict
// all run it, so every path computes the same bits by construction.
// backward() consumes dLoss/dOut on Matrix batches and returns dLoss/dIn
// while accumulating parameter gradients internally.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ml/feature_matrix.hpp"
#include "ml/matrix.hpp"
#include "util/arena.hpp"
#include "util/serialize.hpp"

namespace drlhmd::ml {
class RowLocator;
}

namespace drlhmd::ml::nn {

class Layer {
 public:
  virtual ~Layer() = default;

  /// Training forward: keeps `input` for backward(), then runs infer_rows.
  Matrix forward(const Matrix& input);
  /// Output width for an input of `in_cols` columns; throws when the layer
  /// cannot accept that width.
  virtual std::size_t infer_out_cols(std::size_t in_cols) const = 0;
  /// The layer's forward pass, over raw row-major buffers: reads
  /// rows x in_cols from `in`, writes rows x infer_out_cols(in_cols) to
  /// `out` (distinct buffers).  Const and allocation-free, so parallel
  /// batch-inference workers may call it concurrently.
  virtual void infer_rows(const double* in, std::size_t rows,
                          std::size_t in_cols, double* out) const = 0;
  virtual Matrix backward(const Matrix& grad_output) = 0;

  virtual void zero_grad() {}
  /// Adam update with bias correction; `t` is the 1-based step counter.
  virtual void adam_step(double lr, double beta1, double beta2, double eps,
                         std::uint64_t t);
  virtual std::size_t param_count() const { return 0; }

  virtual std::string kind() const = 0;
  virtual std::unique_ptr<Layer> clone() const = 0;
  virtual void serialize(util::ByteWriter& w) const = 0;

 protected:
  Matrix input_cache_;  // forward()'s input, read by backward()
};

/// Fully connected layer: out = in * W + b.
class Dense final : public Layer {
 public:
  Dense(std::size_t in_features, std::size_t out_features, util::Rng& rng);

  std::size_t infer_out_cols(std::size_t in_cols) const override;
  void infer_rows(const double* in, std::size_t rows, std::size_t in_cols,
                  double* out) const override;
  Matrix backward(const Matrix& grad_output) override;
  void zero_grad() override;
  void adam_step(double lr, double beta1, double beta2, double eps,
                 std::uint64_t t) override;
  std::size_t param_count() const override;
  std::string kind() const override { return "dense"; }
  std::unique_ptr<Layer> clone() const override;
  void serialize(util::ByteWriter& w) const override;
  static std::unique_ptr<Dense> deserialize(util::ByteReader& r);

  const Matrix& weights() const { return w_; }
  const Matrix& bias() const { return b_; }

 private:
  Dense() = default;

  Matrix w_, b_;
  Matrix grad_w_, grad_b_;
  Matrix m_w_, v_w_, m_b_, v_b_;  // Adam moments
};

/// Elementwise rectifier.
class Relu final : public Layer {
 public:
  std::size_t infer_out_cols(std::size_t in_cols) const override {
    return in_cols;
  }
  void infer_rows(const double* in, std::size_t rows, std::size_t in_cols,
                  double* out) const override;
  Matrix backward(const Matrix& grad_output) override;
  std::string kind() const override { return "relu"; }
  std::unique_ptr<Layer> clone() const override { return std::make_unique<Relu>(); }
  void serialize(util::ByteWriter& w) const override;
};

/// 1-D "valid" convolution over a channel-major flattened signal.
/// Input rows are laid out as [ch0: pos0..posL-1][ch1: ...]...; output rows
/// likewise with out_length = length - kernel + 1.
class Conv1D final : public Layer {
 public:
  Conv1D(std::size_t in_channels, std::size_t out_channels, std::size_t length,
         std::size_t kernel, util::Rng& rng);

  std::size_t infer_out_cols(std::size_t in_cols) const override;
  void infer_rows(const double* in, std::size_t rows, std::size_t in_cols,
                  double* out) const override;
  Matrix backward(const Matrix& grad_output) override;
  void zero_grad() override;
  void adam_step(double lr, double beta1, double beta2, double eps,
                 std::uint64_t t) override;
  std::size_t param_count() const override;
  std::string kind() const override { return "conv1d"; }
  std::unique_ptr<Layer> clone() const override;
  void serialize(util::ByteWriter& w) const override;
  static std::unique_ptr<Conv1D> deserialize(util::ByteReader& r);

  std::size_t out_length() const { return length_ - kernel_ + 1; }
  std::size_t out_width() const { return out_channels_ * out_length(); }
  std::size_t in_channels() const { return in_channels_; }
  std::size_t out_channels() const { return out_channels_; }
  std::size_t length() const { return length_; }
  std::size_t kernel() const { return kernel_; }
  const Matrix& weights() const { return w_; }
  const Matrix& bias() const { return b_; }

 private:
  Conv1D() = default;

  std::size_t in_channels_ = 0, out_channels_ = 0, length_ = 0, kernel_ = 0;
  Matrix w_;  // (out_channels, in_channels * kernel)
  Matrix b_;  // (1, out_channels)
  Matrix grad_w_, grad_b_, m_w_, v_w_, m_b_, v_b_;
};

/// Layer pipeline with a shared Adam clock.
class Network {
 public:
  Network() = default;
  Network(const Network& other);
  Network& operator=(const Network& other);
  Network(Network&&) = default;
  Network& operator=(Network&&) = default;

  void add(std::unique_ptr<Layer> layer) { layers_.push_back(std::move(layer)); }

  /// Training forward: every layer keeps its input for backward().
  Matrix forward(const Matrix& input);
  /// Output width of the full chain for an input of `in_cols` columns.
  std::size_t infer_out_cols(std::size_t in_cols) const;
  /// Const, allocation-free forward over raw row-major buffers; the
  /// inter-layer ping-pong scratch comes from `arena` (scope-bounded,
  /// rewound before returning).  Bitwise-identical to forward().
  void infer_rows(const double* in, std::size_t rows, std::size_t in_cols,
                  double* out, util::Arena& arena) const;
  /// Backprop from dLoss/dOutput; returns dLoss/dInput.
  Matrix backward(const Matrix& grad_output);
  void zero_grad();
  void adam_step(double lr, double beta1 = 0.9, double beta2 = 0.999,
                 double eps = 1e-8);

  std::size_t param_count() const;
  std::size_t layer_count() const { return layers_.size(); }
  bool empty() const { return layers_.empty(); }
  const std::vector<std::unique_ptr<Layer>>& layers() const { return layers_; }

  std::vector<std::uint8_t> serialize() const;
  static Network deserialize(std::span<const std::uint8_t> bytes);

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  std::uint64_t step_ = 0;
};

/// Row-wise softmax: a copy of `logits` through softmax_rows.
Matrix softmax(const Matrix& logits);

/// In-place row-wise softmax over a raw row-major buffer.
void softmax_rows(double* data, std::size_t rows, std::size_t cols);

/// Scoring for a 2-way softmax head (MlpClassifier, ConvNetClassifier):
/// P(class 1) for one row, as a one-row infer_rows over the caller's span.
/// Scratch comes from the thread's arena, so steady-state calls do not
/// touch the heap.
double class1_proba(const Network& net, std::span<const double> row);

/// class1_proba() for every row of a columnar batch: rows are gathered
/// into arena scratch 128 at a time, then run through infer_rows and
/// softmax_rows.  Every layer is row-local, so each result is bitwise
/// class1_proba() of that row, whatever the block partition.
void class1_proba_batch(const Network& net, BatchView batch,
                        std::span<double> out);

/// Minibatch Adam on softmax cross-entropy.  Each epoch shuffles the row
/// order with `rng`; each minibatch of `batch_size` rows is gathered from
/// `rows`, then runs forward, backward and one Adam step.
void fit_classifier(Network& net, const RowLocator& rows, std::size_t epochs,
                    std::size_t batch_size, double learning_rate,
                    util::Rng& rng);

struct LossResult {
  double loss = 0.0;
  Matrix grad;  // dLoss/dLogits (already averaged over the batch)
};

/// Cross-entropy over softmax(logits); labels are class indices.
LossResult softmax_cross_entropy(const Matrix& logits,
                                 std::span<const int> labels);

/// Mean squared error against targets (same shape).
LossResult mse_loss(const Matrix& predictions, const Matrix& targets);

/// Convenience: MLP topology builder (Dense+ReLU stacks, linear head).
Network make_mlp(std::size_t in_features, const std::vector<std::size_t>& hidden,
                 std::size_t out_features, util::Rng& rng);

}  // namespace drlhmd::ml::nn
