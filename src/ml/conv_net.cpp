#include "ml/conv_net.hpp"

#include <stdexcept>

#include "ml/data_source.hpp"

namespace drlhmd::ml {
namespace {
constexpr std::uint8_t kFormatVersion = 1;
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
  nn::fit_classifier(net_, rows, config_.epochs, config_.batch_size,
                     config_.learning_rate, rng);
}

double ConvNetClassifier::predict_proba(std::span<const double> features) const {
  if (!trained()) throw std::logic_error("ConvNetClassifier: not trained");
  if (features.size() != in_features_)
    throw std::invalid_argument("ConvNetClassifier: feature width mismatch");
  return nn::class1_proba(net_, features);
}

void ConvNetClassifier::predict_proba_batch(BatchView batch,
                                            std::span<double> out) const {
  if (!trained()) throw std::logic_error("ConvNetClassifier: not trained");
  check_batch_out(batch, out);
  if (batch.cols() != in_features_)
    throw std::invalid_argument("ConvNetClassifier: feature width mismatch");
  nn::class1_proba_batch(net_, batch, out);
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
