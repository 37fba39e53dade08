#include "ml/conv_net.hpp"

#include <stdexcept>

#include "ml/data_source.hpp"
#include "util/arena.hpp"

namespace drlhmd::ml {
namespace {
constexpr std::uint8_t kFormatVersion = 1;

// Rows per inference block: keeps per-layer activations cache-resident.
constexpr std::size_t kBlockRows = 128;
}

ConvNetClassifier::ConvNetClassifier(ConvNetConfig config) : config_(config) {
  if (config_.kernel == 0) throw std::invalid_argument("ConvNetClassifier: kernel == 0");
  if (config_.epochs == 0 || config_.batch_size == 0)
    throw std::invalid_argument("ConvNetClassifier: epochs/batch_size must be > 0");
  if (config_.learning_rate <= 0.0)
    throw std::invalid_argument("ConvNetClassifier: learning_rate must be > 0");
}

void ConvNetClassifier::fit(const Dataset& train) {
  train.validate();
  fit_stream(DatasetSource(train));
}

void ConvNetClassifier::fit_stream(const DataSource& train) {
  const RowLocator rows(train);
  if (rows.rows() == 0)
    throw std::invalid_argument("ConvNetClassifier::fit: empty dataset");
  in_features_ = rows.num_features();
  // Two valid convolutions need kernel <= (width + 1) / 2; narrower inputs
  // get a clamped kernel (degenerating to 1x1 convolutions at width 1)
  // rather than failing, so feature-count sweeps can include the NN.
  const std::size_t kernel =
      std::max<std::size_t>(1, std::min(config_.kernel, (in_features_ + 1) / 2));

  util::Rng rng(config_.seed);
  nn::Network net;
  auto conv1 = std::make_unique<nn::Conv1D>(1, config_.conv1_channels, in_features_,
                                            kernel, rng);
  const std::size_t len1 = conv1->out_length();
  net.add(std::move(conv1));
  net.add(std::make_unique<nn::Relu>());
  auto conv2 = std::make_unique<nn::Conv1D>(config_.conv1_channels,
                                            config_.conv2_channels, len1,
                                            kernel, rng);
  const std::size_t flat = conv2->out_width();
  net.add(std::move(conv2));
  net.add(std::make_unique<nn::Relu>());
  net.add(std::make_unique<nn::Dense>(flat, config_.fc1, rng));
  net.add(std::make_unique<nn::Relu>());
  net.add(std::make_unique<nn::Dense>(config_.fc1, config_.fc2, rng));
  net.add(std::make_unique<nn::Relu>());
  net.add(std::make_unique<nn::Dense>(config_.fc2, 2, rng));
  net_ = std::move(net);

  std::vector<std::size_t> order(rows.rows());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.shuffle(order);
    for (std::size_t start = 0; start < order.size(); start += config_.batch_size) {
      const std::size_t end = std::min(order.size(), start + config_.batch_size);
      Matrix batch(end - start, in_features_);
      std::vector<int> labels(end - start);
      for (std::size_t i = start; i < end; ++i) {
        const std::size_t row = order[i];
        for (std::size_t c = 0; c < in_features_; ++c)
          batch.at(i - start, c) = rows.at(row, c);
        labels[i - start] = rows.label(row);
      }
      net_.zero_grad();
      const Matrix logits = net_.forward(batch);
      const nn::LossResult loss = nn::softmax_cross_entropy(logits, labels);
      net_.backward(loss.grad);
      net_.adam_step(config_.learning_rate);
    }
  }
}

double ConvNetClassifier::predict_proba(std::span<const double> features) const {
  if (!trained()) throw std::logic_error("ConvNetClassifier: not trained");
  if (features.size() != in_features_)
    throw std::invalid_argument("ConvNetClassifier: feature width mismatch");
  const Matrix logits = net_.infer(Matrix::row_vector(features));
  return nn::softmax(logits).at(0, 1);
}

void ConvNetClassifier::predict_proba_batch(BatchView batch,
                                            std::span<double> out) const {
  if (!trained()) throw std::logic_error("ConvNetClassifier: not trained");
  check_batch_out(batch, out);
  if (batch.cols() != in_features_)
    throw std::invalid_argument("ConvNetClassifier: feature width mismatch");
  if (batch.rows() == 0) return;
  // Conv1D/Relu/Dense inference and softmax are all row-local, so each
  // block's forward pass scores row r bitwise identically to a one-row
  // pass (and to any other block partition).  Scratch comes from the
  // per-thread arena: zero heap traffic in steady state.
  util::ArenaScope scope(util::scratch_arena());
  const std::size_t block = std::min(kBlockRows, batch.rows());
  auto rows_buf = scope.alloc<double>(block * in_features_);
  auto probs = scope.alloc<double>(block * 2);
  for (std::size_t r0 = 0; r0 < batch.rows(); r0 += kBlockRows) {
    const std::size_t count = std::min(kBlockRows, batch.rows() - r0);
    for (std::size_t c = 0; c < in_features_; ++c) {
      const ColumnView colc = batch.col(c);
      for (std::size_t r = 0; r < count; ++r)
        rows_buf[r * in_features_ + c] = colc[r0 + r];
    }
    net_.infer_rows(rows_buf.data(), count, in_features_, probs.data(),
                    scope.arena());
    nn::softmax_rows(probs.data(), count, 2);
    for (std::size_t r = 0; r < count; ++r) out[r0 + r] = probs[r * 2 + 1];
  }
}

std::vector<std::uint8_t> ConvNetClassifier::serialize() const {
  util::ByteWriter w;
  w.write_string("NN");
  w.write_u8(kFormatVersion);
  w.write_u64(in_features_);
  w.write_bytes(net_.serialize());
  return w.take();
}

ConvNetClassifier ConvNetClassifier::deserialize(std::span<const std::uint8_t> bytes) {
  util::ByteReader r(bytes);
  if (r.read_string() != "NN")
    throw std::invalid_argument("ConvNetClassifier::deserialize: bad magic");
  if (r.read_u8() != kFormatVersion)
    throw std::invalid_argument("ConvNetClassifier::deserialize: bad version");
  ConvNetClassifier model;
  model.in_features_ = static_cast<std::size_t>(r.read_u64());
  model.net_ = nn::Network::deserialize(r.read_bytes());
  return model;
}

std::unique_ptr<Classifier> ConvNetClassifier::clone_untrained() const {
  return std::make_unique<ConvNetClassifier>(config_);
}

}  // namespace drlhmd::ml
