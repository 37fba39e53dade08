#include "ml/nn.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ml/data_source.hpp"

namespace drlhmd::ml::nn {
namespace {

constexpr std::uint8_t kFormatVersion = 1;

// Rows per class1_proba_batch block: keeps per-layer activations
// cache-resident instead of streaming whole-batch intermediates.
constexpr std::size_t kBlockRows = 128;

void write_matrix(util::ByteWriter& w, const Matrix& m) {
  w.write_u64(m.rows());
  w.write_u64(m.cols());
  w.write_f64_vec(m.flat());
}

Matrix read_matrix(util::ByteReader& r) {
  const auto rows = static_cast<std::size_t>(r.read_u64());
  const auto cols = static_cast<std::size_t>(r.read_u64());
  const std::vector<double> data = r.read_f64_vec();
  if (data.size() != rows * cols)
    throw std::invalid_argument("nn::read_matrix: size mismatch");
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < data.size(); ++i) m.flat()[i] = data[i];
  return m;
}

void adam_update(Matrix& param, Matrix& grad, Matrix& m, Matrix& v, double lr,
                 double beta1, double beta2, double eps, std::uint64_t t) {
  if (m.empty()) {
    m = Matrix(param.rows(), param.cols());
    v = Matrix(param.rows(), param.cols());
  }
  const double bc1 = 1.0 - std::pow(beta1, static_cast<double>(t));
  const double bc2 = 1.0 - std::pow(beta2, static_cast<double>(t));
  auto pm = param.flat();
  auto gm = grad.flat();
  auto mm = m.flat();
  auto vm = v.flat();
  for (std::size_t i = 0; i < pm.size(); ++i) {
    mm[i] = beta1 * mm[i] + (1.0 - beta1) * gm[i];
    vm[i] = beta2 * vm[i] + (1.0 - beta2) * gm[i] * gm[i];
    const double m_hat = mm[i] / bc1;
    const double v_hat = vm[i] / bc2;
    pm[i] -= lr * m_hat / (std::sqrt(v_hat) + eps);
  }
}

}  // namespace

Matrix Layer::forward(const Matrix& input) {
  Matrix out(input.rows(), infer_out_cols(input.cols()));
  input_cache_ = input;
  infer_rows(input.flat().data(), input.rows(), input.cols(),
             out.flat().data());
  return out;
}

void Layer::adam_step(double, double, double, double, std::uint64_t) {}

// ---------------------------------------------------------------- Dense --

Dense::Dense(std::size_t in_features, std::size_t out_features, util::Rng& rng) {
  if (in_features == 0 || out_features == 0)
    throw std::invalid_argument("Dense: zero-sized layer");
  // He initialization (ReLU-friendly).
  const double stddev = std::sqrt(2.0 / static_cast<double>(in_features));
  w_ = Matrix::randn(in_features, out_features, stddev, rng);
  b_ = Matrix(1, out_features);
  grad_w_ = Matrix(in_features, out_features);
  grad_b_ = Matrix(1, out_features);
}

std::size_t Dense::infer_out_cols(std::size_t in_cols) const {
  if (in_cols != w_.rows())
    throw std::invalid_argument("Dense::infer_rows: input width mismatch");
  return w_.cols();
}

void Dense::infer_rows(const double* in, std::size_t rows, std::size_t in_cols,
                       double* out) const {
  const std::size_t n = infer_out_cols(in_cols);
  matmul_rows(in, rows, in_cols, w_.flat().data(), n, out);
  const double* bias = b_.flat().data();
  for (std::size_t i = 0; i < rows; ++i) {
    double* orow = out + i * n;
    for (std::size_t j = 0; j < n; ++j) orow[j] += bias[j];
  }
}

Matrix Dense::backward(const Matrix& grad_output) {
  grad_w_ += input_cache_.transpose_matmul(grad_output);
  grad_b_ += grad_output.column_sums();
  return grad_output.matmul_transpose(w_);
}

void Dense::zero_grad() {
  grad_w_ *= 0.0;
  grad_b_ *= 0.0;
}

void Dense::adam_step(double lr, double beta1, double beta2, double eps,
                      std::uint64_t t) {
  adam_update(w_, grad_w_, m_w_, v_w_, lr, beta1, beta2, eps, t);
  adam_update(b_, grad_b_, m_b_, v_b_, lr, beta1, beta2, eps, t);
}

std::size_t Dense::param_count() const { return w_.size() + b_.size(); }

std::unique_ptr<Layer> Dense::clone() const {
  auto copy = std::unique_ptr<Dense>(new Dense());
  copy->w_ = w_;
  copy->b_ = b_;
  copy->grad_w_ = Matrix(w_.rows(), w_.cols());
  copy->grad_b_ = Matrix(b_.rows(), b_.cols());
  return copy;
}

void Dense::serialize(util::ByteWriter& w) const {
  w.write_string("dense");
  write_matrix(w, w_);
  write_matrix(w, b_);
}

std::unique_ptr<Dense> Dense::deserialize(util::ByteReader& r) {
  auto layer = std::unique_ptr<Dense>(new Dense());
  layer->w_ = read_matrix(r);
  layer->b_ = read_matrix(r);
  layer->grad_w_ = Matrix(layer->w_.rows(), layer->w_.cols());
  layer->grad_b_ = Matrix(layer->b_.rows(), layer->b_.cols());
  return layer;
}

// ----------------------------------------------------------------- Relu --

void Relu::infer_rows(const double* in, std::size_t rows, std::size_t in_cols,
                      double* out) const {
  const std::size_t total = rows * in_cols;
  for (std::size_t i = 0; i < total; ++i) {
    const double v = in[i];
    out[i] = v > 0.0 ? v : 0.0;
  }
}

Matrix Relu::backward(const Matrix& grad_output) {
  if (!grad_output.same_shape(input_cache_))
    throw std::invalid_argument("Relu::backward: shape mismatch");
  Matrix grad = grad_output;
  auto g = grad.flat();
  auto in = input_cache_.flat();
  for (std::size_t i = 0; i < g.size(); ++i)
    if (in[i] <= 0.0) g[i] = 0.0;
  return grad;
}

void Relu::serialize(util::ByteWriter& w) const { w.write_string("relu"); }

// --------------------------------------------------------------- Conv1D --

Conv1D::Conv1D(std::size_t in_channels, std::size_t out_channels,
               std::size_t length, std::size_t kernel, util::Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      length_(length),
      kernel_(kernel) {
  if (in_channels == 0 || out_channels == 0 || length == 0 || kernel == 0)
    throw std::invalid_argument("Conv1D: zero-sized parameter");
  if (kernel > length) throw std::invalid_argument("Conv1D: kernel longer than input");
  const double stddev =
      std::sqrt(2.0 / static_cast<double>(in_channels * kernel));
  w_ = Matrix::randn(out_channels, in_channels * kernel, stddev, rng);
  b_ = Matrix(1, out_channels);
  grad_w_ = Matrix(w_.rows(), w_.cols());
  grad_b_ = Matrix(b_.rows(), b_.cols());
}

std::size_t Conv1D::infer_out_cols(std::size_t in_cols) const {
  if (in_cols != in_channels_ * length_)
    throw std::invalid_argument("Conv1D::forward: input width mismatch");
  return out_width();
}

void Conv1D::infer_rows(const double* in, std::size_t rows,
                        std::size_t in_cols, double* out) const {
  const std::size_t width = infer_out_cols(in_cols);
  const std::size_t out_len = out_length();
  for (std::size_t n = 0; n < rows; ++n) {
    const double* irow = in + n * in_cols;
    double* orow = out + n * width;
    for (std::size_t o = 0; o < out_channels_; ++o) {
      for (std::size_t p = 0; p < out_len; ++p) {
        double acc = b_.at(0, o);
        for (std::size_t i = 0; i < in_channels_; ++i)
          for (std::size_t k = 0; k < kernel_; ++k)
            acc += w_.at(o, i * kernel_ + k) * irow[i * length_ + p + k];
        orow[o * out_len + p] = acc;
      }
    }
  }
}

Matrix Conv1D::backward(const Matrix& grad_output) {
  const std::size_t out_len = out_length();
  if (grad_output.cols() != out_channels_ * out_len ||
      grad_output.rows() != input_cache_.rows())
    throw std::invalid_argument("Conv1D::backward: shape mismatch");
  Matrix grad_in(input_cache_.rows(), in_channels_ * length_);
  for (std::size_t n = 0; n < grad_output.rows(); ++n) {
    for (std::size_t o = 0; o < out_channels_; ++o) {
      for (std::size_t p = 0; p < out_len; ++p) {
        const double g = grad_output.at(n, o * out_len + p);
        if (g == 0.0) continue;
        grad_b_.at(0, o) += g;
        for (std::size_t i = 0; i < in_channels_; ++i) {
          for (std::size_t k = 0; k < kernel_; ++k) {
            grad_w_.at(o, i * kernel_ + k) +=
                g * input_cache_.at(n, i * length_ + p + k);
            grad_in.at(n, i * length_ + p + k) += g * w_.at(o, i * kernel_ + k);
          }
        }
      }
    }
  }
  return grad_in;
}

void Conv1D::zero_grad() {
  grad_w_ *= 0.0;
  grad_b_ *= 0.0;
}

void Conv1D::adam_step(double lr, double beta1, double beta2, double eps,
                       std::uint64_t t) {
  adam_update(w_, grad_w_, m_w_, v_w_, lr, beta1, beta2, eps, t);
  adam_update(b_, grad_b_, m_b_, v_b_, lr, beta1, beta2, eps, t);
}

std::size_t Conv1D::param_count() const { return w_.size() + b_.size(); }

std::unique_ptr<Layer> Conv1D::clone() const {
  auto copy = std::unique_ptr<Conv1D>(new Conv1D());
  copy->in_channels_ = in_channels_;
  copy->out_channels_ = out_channels_;
  copy->length_ = length_;
  copy->kernel_ = kernel_;
  copy->w_ = w_;
  copy->b_ = b_;
  copy->grad_w_ = Matrix(w_.rows(), w_.cols());
  copy->grad_b_ = Matrix(b_.rows(), b_.cols());
  return copy;
}

void Conv1D::serialize(util::ByteWriter& w) const {
  w.write_string("conv1d");
  w.write_u64(in_channels_);
  w.write_u64(out_channels_);
  w.write_u64(length_);
  w.write_u64(kernel_);
  write_matrix(w, w_);
  write_matrix(w, b_);
}

std::unique_ptr<Conv1D> Conv1D::deserialize(util::ByteReader& r) {
  auto layer = std::unique_ptr<Conv1D>(new Conv1D());
  layer->in_channels_ = static_cast<std::size_t>(r.read_u64());
  layer->out_channels_ = static_cast<std::size_t>(r.read_u64());
  layer->length_ = static_cast<std::size_t>(r.read_u64());
  layer->kernel_ = static_cast<std::size_t>(r.read_u64());
  layer->w_ = read_matrix(r);
  layer->b_ = read_matrix(r);
  layer->grad_w_ = Matrix(layer->w_.rows(), layer->w_.cols());
  layer->grad_b_ = Matrix(layer->b_.rows(), layer->b_.cols());
  return layer;
}

// -------------------------------------------------------------- Network --

Network::Network(const Network& other) : step_(other.step_) {
  layers_.reserve(other.layers_.size());
  for (const auto& layer : other.layers_) layers_.push_back(layer->clone());
}

Network& Network::operator=(const Network& other) {
  if (this == &other) return *this;
  Network copy(other);
  *this = std::move(copy);
  return *this;
}

Matrix Network::forward(const Matrix& input) {
  Matrix x = input;
  for (auto& layer : layers_) x = layer->forward(x);
  return x;
}

std::size_t Network::infer_out_cols(std::size_t in_cols) const {
  std::size_t cols = in_cols;
  for (const auto& layer : layers_) cols = layer->infer_out_cols(cols);
  return cols;
}

void Network::infer_rows(const double* in, std::size_t rows,
                         std::size_t in_cols, double* out,
                         util::Arena& arena) const {
  if (layers_.empty()) {
    std::copy(in, in + rows * in_cols, out);
    return;
  }
  util::ArenaScope scope(arena);
  // Widest inter-layer activation decides the ping-pong buffer size (the
  // final layer writes straight into `out`).
  std::size_t peak = 0;
  {
    std::size_t cols = in_cols;
    for (std::size_t l = 0; l + 1 < layers_.size(); ++l) {
      cols = layers_[l]->infer_out_cols(cols);
      peak = std::max(peak, cols);
    }
  }
  std::span<double> ping = scope.alloc<double>(rows * peak);
  std::span<double> pong = scope.alloc<double>(rows * peak);
  double* buf[2] = {ping.data(), pong.data()};
  const double* cur = in;
  std::size_t cur_cols = in_cols;
  std::size_t which = 0;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    double* dst = (l + 1 == layers_.size()) ? out : buf[which];
    layers_[l]->infer_rows(cur, rows, cur_cols, dst);
    cur_cols = layers_[l]->infer_out_cols(cur_cols);
    cur = dst;
    which ^= 1;
  }
}

Matrix Network::backward(const Matrix& grad_output) {
  Matrix g = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
    g = (*it)->backward(g);
  return g;
}

void Network::zero_grad() {
  for (auto& layer : layers_) layer->zero_grad();
}

void Network::adam_step(double lr, double beta1, double beta2, double eps) {
  ++step_;
  for (auto& layer : layers_) layer->adam_step(lr, beta1, beta2, eps, step_);
}

std::size_t Network::param_count() const {
  std::size_t total = 0;
  for (const auto& layer : layers_) total += layer->param_count();
  return total;
}

std::vector<std::uint8_t> Network::serialize() const {
  util::ByteWriter w;
  w.write_string("NNET");
  w.write_u8(kFormatVersion);
  w.write_u64(step_);
  w.write_u64(layers_.size());
  for (const auto& layer : layers_) layer->serialize(w);
  return w.take();
}

Network Network::deserialize(std::span<const std::uint8_t> bytes) {
  util::ByteReader r(bytes);
  if (r.read_string() != "NNET")
    throw std::invalid_argument("Network::deserialize: bad magic");
  if (r.read_u8() != kFormatVersion)
    throw std::invalid_argument("Network::deserialize: bad version");
  Network net;
  net.step_ = r.read_u64();
  const std::uint64_t n_layers = r.read_u64();
  for (std::uint64_t i = 0; i < n_layers; ++i) {
    const std::string kind = r.read_string();
    if (kind == "dense") {
      net.add(Dense::deserialize(r));
    } else if (kind == "relu") {
      net.add(std::make_unique<Relu>());
    } else if (kind == "conv1d") {
      net.add(Conv1D::deserialize(r));
    } else {
      throw std::invalid_argument("Network::deserialize: unknown layer '" + kind + "'");
    }
  }
  return net;
}

// --------------------------------------------------------------- Losses --

Matrix softmax(const Matrix& logits) {
  Matrix out = logits;
  softmax_rows(out.flat().data(), out.rows(), out.cols());
  return out;
}

void softmax_rows(double* data, std::size_t rows, std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    double* row = data + r * cols;
    double max_logit = row[0];
    for (std::size_t c = 0; c < cols; ++c)
      max_logit = std::max(max_logit, row[c]);
    double total = 0.0;
    for (std::size_t c = 0; c < cols; ++c) {
      row[c] = std::exp(row[c] - max_logit);
      total += row[c];
    }
    for (std::size_t c = 0; c < cols; ++c) row[c] /= total;
  }
}

double class1_proba(const Network& net, std::span<const double> row) {
  util::ArenaScope scope(util::scratch_arena());
  auto logits = scope.alloc<double>(2);
  net.infer_rows(row.data(), 1, row.size(), logits.data(), scope.arena());
  softmax_rows(logits.data(), 1, 2);
  return logits[1];
}

void class1_proba_batch(const Network& net, BatchView batch,
                        std::span<double> out) {
  if (batch.rows() == 0) return;
  util::ArenaScope scope(util::scratch_arena());
  const std::size_t cols = batch.cols();
  const std::size_t block = std::min(kBlockRows, batch.rows());
  auto rows_buf = scope.alloc<double>(block * cols);
  auto probs = scope.alloc<double>(block * 2);
  for (std::size_t r0 = 0; r0 < batch.rows(); r0 += kBlockRows) {
    const std::size_t count = std::min(kBlockRows, batch.rows() - r0);
    for (std::size_t c = 0; c < cols; ++c) {
      const ColumnView colc = batch.col(c);
      for (std::size_t r = 0; r < count; ++r)
        rows_buf[r * cols + c] = colc[r0 + r];
    }
    net.infer_rows(rows_buf.data(), count, cols, probs.data(), scope.arena());
    softmax_rows(probs.data(), count, 2);
    for (std::size_t r = 0; r < count; ++r) out[r0 + r] = probs[r * 2 + 1];
  }
}

void fit_classifier(Network& net, const RowLocator& rows, std::size_t epochs,
                    std::size_t batch_size, double learning_rate,
                    util::Rng& rng) {
  const std::size_t cols = rows.num_features();
  std::vector<std::size_t> order(rows.rows());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    rng.shuffle(order);
    for (std::size_t start = 0; start < order.size(); start += batch_size) {
      const std::size_t end = std::min(order.size(), start + batch_size);
      Matrix batch(end - start, cols);
      std::vector<int> labels(end - start);
      for (std::size_t i = start; i < end; ++i) {
        const std::size_t row = order[i];
        for (std::size_t c = 0; c < cols; ++c)
          batch.at(i - start, c) = rows.at(row, c);
        labels[i - start] = rows.label(row);
      }
      net.zero_grad();
      const Matrix logits = net.forward(batch);
      const LossResult loss = softmax_cross_entropy(logits, labels);
      net.backward(loss.grad);
      net.adam_step(learning_rate);
    }
  }
}

LossResult softmax_cross_entropy(const Matrix& logits,
                                 std::span<const int> labels) {
  if (logits.rows() != labels.size())
    throw std::invalid_argument("softmax_cross_entropy: batch size mismatch");
  LossResult result;
  result.grad = softmax(logits);
  const double inv_n = 1.0 / static_cast<double>(logits.rows());
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const int label = labels[r];
    if (label < 0 || static_cast<std::size_t>(label) >= logits.cols())
      throw std::invalid_argument("softmax_cross_entropy: label out of range");
    const double p = result.grad.at(r, static_cast<std::size_t>(label));
    result.loss -= std::log(std::max(p, 1e-12)) * inv_n;
    result.grad.at(r, static_cast<std::size_t>(label)) -= 1.0;
  }
  result.grad *= inv_n;
  return result;
}

LossResult mse_loss(const Matrix& predictions, const Matrix& targets) {
  if (!predictions.same_shape(targets))
    throw std::invalid_argument("mse_loss: shape mismatch");
  LossResult result;
  result.grad = predictions - targets;
  const double inv_n = 1.0 / static_cast<double>(predictions.size());
  for (double v : result.grad.flat()) result.loss += v * v * inv_n;
  result.grad *= 2.0 * inv_n;
  return result;
}

Network make_mlp(std::size_t in_features, const std::vector<std::size_t>& hidden,
                 std::size_t out_features, util::Rng& rng) {
  Network net;
  std::size_t prev = in_features;
  for (std::size_t width : hidden) {
    net.add(std::make_unique<Dense>(prev, width, rng));
    net.add(std::make_unique<Relu>());
    prev = width;
  }
  net.add(std::make_unique<Dense>(prev, out_features, rng));
  return net;
}

}  // namespace drlhmd::ml::nn
