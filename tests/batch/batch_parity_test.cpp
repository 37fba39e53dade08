// Row-vs-batch exact parity for the columnar data plane.
//
// The batch-first Classifier API promises that predict_proba_batch is a
// pure vectorization: for every detector, batch scores must be bit-for-bit
// identical to calling predict_proba on each row — at any DRLHMD_THREADS
// width, over the full view, over offset row slices (non-zero view base),
// and through the runtime's pipelined batch path.  Any drift here means a
// batch override reordered floating-point work, which would silently break
// the repo-wide determinism guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "ml/conv_net.hpp"
#include "ml/mlp.hpp"
#include "ml/model_zoo.hpp"
#include "ml/nn.hpp"
#include "rl/adversarial_predictor.hpp"
#include "rl/constraint_controller.hpp"
#include "rl/model_profile.hpp"
#include "util/arena.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace drlhmd {
namespace {

/// Two overlapping Gaussian blobs in 4-D (the engineered feature width).
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

/// Bitwise equality of doubles (NaN-safe, -0.0 != +0.0 on purpose: the
/// parity claim is "same bits", not "same value").
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_TRUE(same_bits(a[i], b[i]))
        << what << ": row " << i << " batch=" << b[i] << " row-path=" << a[i];
}

const std::vector<std::size_t> kWidths = {1, 2, 8};

class BatchParity : public ::testing::TestWithParam<ml::ModelKind> {
 protected:
  void TearDown() override { util::set_parallel_threads(saved_); }

 private:
  std::size_t saved_ = util::parallel_thread_count();
};

TEST_P(BatchParity, BatchMatchesRowPathBitForBit) {
  auto model = ml::make_model(GetParam());
  model->fit(blobs(150, 1.5, 17));
  const ml::Dataset test = blobs(101, 1.5, 91);  // odd count: partial block

  std::vector<double> row_scores(test.size());
  for (std::size_t i = 0; i < test.size(); ++i)
    row_scores[i] = model->predict_proba(test.row_copy(i));

  for (const std::size_t width : kWidths) {
    util::set_parallel_threads(width);
    std::vector<double> batch_scores(test.size());
    model->predict_proba_batch(test.view(), batch_scores);
    expect_bitwise_equal(row_scores, batch_scores, model->name().c_str());
  }
}

TEST_P(BatchParity, OffsetSlicesMatchRowPathBitForBit) {
  auto model = ml::make_model(GetParam());
  model->fit(blobs(120, 1.5, 23));
  const ml::Dataset test = blobs(80, 1.5, 29);

  // Slices with non-zero base exercise the (base + begin, stride) indexing
  // that the runtime's mid-batch re-score path depends on.
  const struct {
    std::size_t begin, count;
  } slices[] = {{0, 37}, {1, 64}, {33, 127}, {159, 1}, {7, 0}};
  for (const auto& s : slices) {
    std::vector<double> row_scores(s.count);
    for (std::size_t i = 0; i < s.count; ++i)
      row_scores[i] = model->predict_proba(test.row_copy(s.begin + i));
    std::vector<double> batch_scores(s.count);
    model->predict_proba_batch(test.view().rows_slice(s.begin, s.count),
                               batch_scores);
    expect_bitwise_equal(row_scores, batch_scores, model->name().c_str());
  }
}

TEST_P(BatchParity, OutSizeMismatchThrows) {
  auto model = ml::make_model(GetParam());
  model->fit(blobs(60, 2.0, 31));
  const ml::Dataset test = blobs(10, 2.0, 37);
  std::vector<double> wrong(test.size() + 1);
  EXPECT_THROW(model->predict_proba_batch(test.view(), wrong),
               std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(AllModels, BatchParity,
                         ::testing::Values(ml::ModelKind::kRf,
                                           ml::ModelKind::kDt,
                                           ml::ModelKind::kLr,
                                           ml::ModelKind::kMlp,
                                           ml::ModelKind::kLightGbm,
                                           ml::ModelKind::kNn),
                         [](const auto& info) {
                           switch (info.param) {
                             case ml::ModelKind::kRf: return "RF";
                             case ml::ModelKind::kDt: return "DT";
                             case ml::ModelKind::kLr: return "LR";
                             case ml::ModelKind::kMlp: return "MLP";
                             case ml::ModelKind::kLightGbm: return "LightGBM";
                             case ml::ModelKind::kNn: return "NN";
                           }
                           return "unknown";
                         });

// ------------------------------------------------- RL batch consumers --

class RlBatchParity : public ::testing::Test {
 protected:
  void TearDown() override { util::set_parallel_threads(saved_); }

 private:
  std::size_t saved_ = util::parallel_thread_count();
};

TEST_F(RlBatchParity, PredictorFeedbackRewardBatchMatchesRowPath) {
  const ml::Dataset adversarial = blobs(40, 3.0, 41);
  const ml::Dataset legitimate = blobs(40, 0.5, 43);
  rl::AdversarialPredictorConfig cfg;
  cfg.epochs = 2;
  rl::AdversarialPredictor predictor(4, cfg);
  predictor.train(adversarial, legitimate);

  const ml::Dataset probe = blobs(33, 1.0, 47);
  std::vector<double> row_rewards(probe.size());
  std::vector<std::uint8_t> row_flags(probe.size());
  for (std::size_t i = 0; i < probe.size(); ++i) {
    const std::vector<double> row = probe.row_copy(i);
    row_rewards[i] = predictor.feedback_reward(row);
    row_flags[i] = predictor.is_adversarial(row) ? 1 : 0;
  }
  for (const std::size_t width : kWidths) {
    util::set_parallel_threads(width);
    std::vector<double> batch_rewards(probe.size());
    predictor.feedback_reward_batch(probe.view(), batch_rewards);
    expect_bitwise_equal(row_rewards, batch_rewards, "predictor");
    std::vector<std::uint8_t> batch_flags(probe.size());
    predictor.is_adversarial_batch(probe.view(), batch_flags);
    EXPECT_EQ(row_flags, batch_flags);
  }
}

TEST_F(RlBatchParity, ControllerPredictBatchMatchesRowPath) {
  const ml::Dataset train = blobs(150, 2.0, 53);
  auto models = ml::make_classical_models();
  std::vector<ml::Classifier*> raw;
  std::vector<rl::ModelProfile> profiles;
  for (auto& m : models) {
    m->fit(train);
    raw.push_back(m.get());
    profiles.push_back(rl::profile_model(*m, train));
  }
  rl::ConstraintControllerConfig cfg;
  cfg.training_epochs = 1;
  rl::ConstraintController controller(raw, profiles, cfg);
  controller.train(train);

  const ml::Dataset probe = blobs(60, 2.0, 59);
  std::vector<int> row_preds(probe.size());
  for (std::size_t i = 0; i < probe.size(); ++i)
    row_preds[i] = controller.predict(probe.row_copy(i));
  for (const std::size_t width : kWidths) {
    util::set_parallel_threads(width);
    std::vector<int> batch_preds(probe.size());
    controller.predict_batch(probe.view(), batch_preds);
    EXPECT_EQ(row_preds, batch_preds);
  }
}


// ------------------------------------------- independent forward oracle --
//
// Row predict, batch predict and training forward all run
// nn::Layer::infer_rows, so comparing them with each other cannot catch a
// fault in that one path.  This suite checks every entry point against a
// reference forward written here from the layer definitions alone (public
// weights, biases and geometry; no infer_rows, matmul_rows or
// softmax_rows), over tiles on both sides of the 8-row parallel threshold
// and the 128-row scoring block, with signed zeros, NaN, infinities,
// denormals and huge values in the inputs.

/// Reference forward of one row through every layer of `net`.
std::vector<double> reference_forward(const ml::nn::Network& net,
                                      std::vector<double> x) {
  for (const auto& layer : net.layers()) {
    const std::string kind = layer->kind();
    if (kind == "dense") {
      const auto& dense = dynamic_cast<const ml::nn::Dense&>(*layer);
      const ml::Matrix& w = dense.weights();
      std::vector<double> y(w.cols());
      for (std::size_t j = 0; j < w.cols(); ++j) {
        double acc = 0.0;
        for (std::size_t k = 0; k < w.rows(); ++k)
          if (x[k] != 0.0) acc += x[k] * w(k, j);
        y[j] = acc + dense.bias()(0, j);
      }
      x = std::move(y);
    } else if (kind == "relu") {
      for (double& v : x) v = v > 0.0 ? v : 0.0;
    } else if (kind == "conv1d") {
      const auto& conv = dynamic_cast<const ml::nn::Conv1D&>(*layer);
      const std::size_t out_len = conv.out_length();
      std::vector<double> y(conv.out_width());
      for (std::size_t o = 0; o < conv.out_channels(); ++o) {
        for (std::size_t p = 0; p < out_len; ++p) {
          double acc = conv.bias()(0, o);
          for (std::size_t i = 0; i < conv.in_channels(); ++i)
            for (std::size_t k = 0; k < conv.kernel(); ++k)
              acc += conv.weights()(o, i * conv.kernel() + k) *
                     x[i * conv.length() + p + k];
          y[o * out_len + p] = acc;
        }
      }
      x = std::move(y);
    } else {
      ADD_FAILURE() << "reference_forward: unknown layer " << kind;
    }
  }
  return x;
}

/// Reference softmax of one row: running max from element 0, exp of the
/// shifted values, their sum, then one division each.
std::vector<double> reference_softmax(std::vector<double> v) {
  double max_logit = v[0];
  for (const double x : v) max_logit = std::max(max_logit, x);
  double total = 0.0;
  for (double& x : v) {
    x = std::exp(x - max_logit);
    total += x;
  }
  for (double& x : v) x /= total;
  return v;
}

/// Same bits where the reference is a number, NaN exactly where it is NaN
/// (payloads depend on operand order, so they are not compared).
void expect_matches_reference(double reference, double got, const char* what,
                              std::size_t row) {
  if (std::isnan(reference)) {
    EXPECT_TRUE(std::isnan(got)) << what << ": row " << row << " got " << got;
  } else {
    EXPECT_TRUE(same_bits(reference, got))
        << what << ": row " << row << " reference=" << reference
        << " got=" << got;
  }
}

/// The network inside a classifier's serialize() bytes: magic, version,
/// input width, then the Network bytes.
ml::nn::Network classifier_network(const ml::Classifier& model) {
  const std::vector<std::uint8_t> bytes = model.serialize();
  util::ByteReader r(bytes);
  r.read_string();
  r.read_u8();
  r.read_u64();
  return ml::nn::Network::deserialize(r.read_bytes());
}

/// Actor and critic inside A2C::serialize() bytes (format version 2).
std::pair<ml::nn::Network, ml::nn::Network> a2c_networks(const rl::A2C& agent) {
  const std::vector<std::uint8_t> bytes = agent.serialize();
  util::ByteReader r(bytes);
  r.read_string();
  r.read_u8();
  r.read_u64_vec();
  for (int i = 0; i < 4; ++i) r.read_f64();
  for (int i = 0; i < 3; ++i) r.read_u64();
  ml::nn::Network actor = ml::nn::Network::deserialize(r.read_bytes());
  ml::nn::Network critic = ml::nn::Network::deserialize(r.read_bytes());
  return {std::move(actor), std::move(critic)};
}

const std::vector<std::size_t> kOracleTiles = {1, 7, 8, 9, 127, 128, 129, 257};

/// `rows` 4-wide rows: ordinary values mixed with ±0.0, NaN, ±inf,
/// denormals and ±1e300, plus whole rows of zeros and of one special.
ml::Dataset oracle_rows(std::size_t rows, std::uint64_t seed) {
  const double specials[] = {0.0,
                             -0.0,
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::denorm_min(),
                             -2.5e-310,
                             1e300,
                             -1e300};
  constexpr std::size_t kSpecials = sizeof(specials) / sizeof(specials[0]);
  util::Rng rng(seed);
  ml::Dataset d;
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<double> row(4);
    for (std::size_t c = 0; c < 4; ++c) {
      if (r % 11 == 3) {
        row[c] = specials[(r / 11) % kSpecials];
      } else if (rng.uniform(0.0, 1.0) < 0.2) {
        row[c] = specials[rng.uniform_int(0, kSpecials - 1)];
      } else {
        row[c] = rng.normal(0.75, 1.5);
      }
    }
    d.push(row, 0);
  }
  return d;
}

class NeuralForwardOracle : public ::testing::Test {
 protected:
  void TearDown() override { util::set_parallel_threads(saved_); }

  /// infer_rows and forward of `net` over each tile, against the reference
  /// of every output column.
  static void check_network(const ml::nn::Network& net, const char* what) {
    ml::nn::Network trainable = net;
    for (const std::size_t tile : kOracleTiles) {
      const ml::Dataset rows = oracle_rows(tile, 100 + tile);
      const std::size_t width = net.infer_out_cols(4);
      ml::Matrix input(tile, 4);
      for (std::size_t r = 0; r < tile; ++r)
        for (std::size_t c = 0; c < 4; ++c) input(r, c) = rows.X.at(r, c);
      std::vector<double> out(tile * width);
      util::Arena arena;
      net.infer_rows(input.flat().data(), tile, 4, out.data(), arena);
      const ml::Matrix trained = trainable.forward(input);
      ASSERT_EQ(trained.rows(), tile);
      ASSERT_EQ(trained.cols(), width);
      for (std::size_t r = 0; r < tile; ++r) {
        const std::vector<double> ref = reference_forward(net, rows.row_copy(r));
        ASSERT_EQ(ref.size(), width);
        for (std::size_t j = 0; j < width; ++j) {
          expect_matches_reference(ref[j], out[r * width + j], what, r);
          expect_matches_reference(ref[j], trained(r, j), what, r);
        }
      }
    }
  }

  /// predict_proba(row) and predict_proba_batch against the reference
  /// softmax of the classifier's rebuilt network.
  static void check_classifier(const ml::Classifier& model) {
    const ml::nn::Network net = classifier_network(model);
    const std::string what = model.name();
    check_network(net, what.c_str());
    for (const std::size_t tile : kOracleTiles) {
      const ml::Dataset rows = oracle_rows(tile, 200 + tile);
      std::vector<double> batch(tile);
      model.predict_proba_batch(rows.view(), batch);
      for (std::size_t r = 0; r < tile; ++r) {
        const std::vector<double> row = rows.row_copy(r);
        const double ref = reference_softmax(reference_forward(net, row))[1];
        expect_matches_reference(ref, model.predict_proba(row), what.c_str(), r);
        expect_matches_reference(ref, batch[r], what.c_str(), r);
      }
    }
  }

 private:
  std::size_t saved_ = util::parallel_thread_count();
};

TEST_F(NeuralForwardOracle, MlpAndNnMatchReferenceForward) {
  ml::MlpClassifier mlp;
  mlp.fit(blobs(150, 1.5, 61));
  ml::ConvNetClassifier nn;
  nn.fit(blobs(150, 1.5, 67));
  for (const std::size_t width : kWidths) {
    util::set_parallel_threads(width);
    check_classifier(mlp);
    check_classifier(nn);
  }
}

TEST_F(NeuralForwardOracle, PredictorActorAndCriticMatchReferenceForward) {
  rl::AdversarialPredictorConfig cfg;
  cfg.epochs = 2;
  rl::AdversarialPredictor predictor(4, cfg);
  predictor.train(blobs(40, 3.0, 71), blobs(40, 0.5, 73));
  const rl::A2C& agent = predictor.agent();
  const auto [actor, critic] = a2c_networks(agent);
  for (const std::size_t width : kWidths) {
    util::set_parallel_threads(width);
    check_network(actor, "actor");
    check_network(critic, "critic");
    for (const std::size_t tile : kOracleTiles) {
      const ml::Dataset rows = oracle_rows(tile, 300 + tile);
      std::vector<double> values(tile);
      agent.value_batch(rows.view(), values);
      for (std::size_t r = 0; r < tile; ++r) {
        const std::vector<double> row = rows.row_copy(r);
        const double value = reference_forward(critic, row)[0];
        expect_matches_reference(value, agent.value(row), "value", r);
        expect_matches_reference(value, values[r], "value_batch", r);
        const std::vector<double> policy =
            reference_softmax(reference_forward(actor, row));
        const std::vector<double> got = agent.policy(row);
        ASSERT_EQ(got.size(), policy.size());
        for (std::size_t a = 0; a < policy.size(); ++a)
          expect_matches_reference(policy[a], got[a], "policy", r);
      }
    }
  }
}

}  // namespace
}  // namespace drlhmd
