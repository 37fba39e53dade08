#include "ml/mlp.hpp"

#include <stdexcept>

#include "ml/data_source.hpp"

namespace drlhmd::ml {
namespace {
constexpr std::uint8_t kFormatVersion = 1;
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
  nn::fit_classifier(net_, rows, config_.epochs, config_.batch_size,
                     config_.learning_rate, rng);
}

double MlpClassifier::predict_proba(std::span<const double> features) const {
  if (!trained()) throw std::logic_error("MlpClassifier: not trained");
  if (features.size() != in_features_)
    throw std::invalid_argument("MlpClassifier: feature width mismatch");
  return nn::class1_proba(net_, features);
}

void MlpClassifier::predict_proba_batch(BatchView batch,
                                        std::span<double> out) const {
  if (!trained()) throw std::logic_error("MlpClassifier: not trained");
  check_batch_out(batch, out);
  if (batch.cols() != in_features_)
    throw std::invalid_argument("MlpClassifier: feature width mismatch");
  nn::class1_proba_batch(net_, batch, out);
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
