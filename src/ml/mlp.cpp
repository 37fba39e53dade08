#include "ml/mlp.hpp"

#include <stdexcept>

#include "ml/data_source.hpp"
#include "util/arena.hpp"

namespace drlhmd::ml {
namespace {
constexpr std::uint8_t kFormatVersion = 1;

// Rows per inference block: keeps per-layer activations cache-resident
// instead of streaming whole-batch intermediates through memory.
constexpr std::size_t kBlockRows = 128;
}

MlpClassifier::MlpClassifier(MlpConfig config) : config_(std::move(config)) {
  if (config_.hidden.empty())
    throw std::invalid_argument("MlpClassifier: need at least one hidden layer");
  if (config_.epochs == 0 || config_.batch_size == 0)
    throw std::invalid_argument("MlpClassifier: epochs/batch_size must be > 0");
  if (config_.learning_rate <= 0.0)
    throw std::invalid_argument("MlpClassifier: learning_rate must be > 0");
}

void MlpClassifier::fit(const Dataset& train) {
  train.validate();
  fit_stream(DatasetSource(train));
}

void MlpClassifier::fit_stream(const DataSource& train) {
  const RowLocator rows(train);
  if (rows.rows() == 0)
    throw std::invalid_argument("MlpClassifier::fit: empty dataset");
  in_features_ = rows.num_features();

  util::Rng rng(config_.seed);
  net_ = nn::make_mlp(in_features_, config_.hidden, 2, rng);

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

double MlpClassifier::predict_proba(std::span<const double> features) const {
  if (!trained()) throw std::logic_error("MlpClassifier: not trained");
  if (features.size() != in_features_)
    throw std::invalid_argument("MlpClassifier: feature width mismatch");
  const Matrix logits = net_.infer(Matrix::row_vector(features));
  const Matrix probs = nn::softmax(logits);
  return probs.at(0, 1);
}

void MlpClassifier::predict_proba_batch(BatchView batch,
                                        std::span<double> out) const {
  if (!trained()) throw std::logic_error("MlpClassifier: not trained");
  check_batch_out(batch, out);
  if (batch.cols() != in_features_)
    throw std::invalid_argument("MlpClassifier: feature width mismatch");
  if (batch.rows() == 0) return;
  // Block-batched inference: infer_rows accumulates each output element
  // over ascending k in every code path, and every layer plus softmax is
  // row-local, so row r of a block's result is bitwise identical to
  // inferring row r alone — and to any other block partition.  All scratch
  // (gathered rows, activations, probabilities) comes from the per-thread
  // arena: zero heap traffic in steady state.
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

std::vector<std::uint8_t> MlpClassifier::serialize() const {
  util::ByteWriter w;
  w.write_string("MLP");
  w.write_u8(kFormatVersion);
  w.write_u64(in_features_);
  w.write_bytes(net_.serialize());
  return w.take();
}

MlpClassifier MlpClassifier::deserialize(std::span<const std::uint8_t> bytes) {
  util::ByteReader r(bytes);
  if (r.read_string() != "MLP")
    throw std::invalid_argument("MlpClassifier::deserialize: bad magic");
  if (r.read_u8() != kFormatVersion)
    throw std::invalid_argument("MlpClassifier::deserialize: bad version");
  MlpClassifier model;
  model.in_features_ = static_cast<std::size_t>(r.read_u64());
  model.net_ = nn::Network::deserialize(r.read_bytes());
  return model;
}

std::unique_ptr<Classifier> MlpClassifier::clone_untrained() const {
  return std::make_unique<MlpClassifier>(config_);
}

}  // namespace drlhmd::ml
