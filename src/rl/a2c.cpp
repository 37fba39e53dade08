#include "rl/a2c.hpp"

#include <cmath>
#include <stdexcept>

#include "util/arena.hpp"

namespace drlhmd::rl {

using ml::Matrix;

A2C::A2C(std::size_t observation_size, std::size_t action_count, A2CConfig config)
    : obs_size_(observation_size), n_actions_(action_count), config_(std::move(config)) {
  if (obs_size_ == 0) throw std::invalid_argument("A2C: observation_size == 0");
  if (n_actions_ < 2) throw std::invalid_argument("A2C: need at least 2 actions");
  if (config_.hidden.empty()) throw std::invalid_argument("A2C: empty hidden spec");
  if (config_.actor_lr <= 0 || config_.critic_lr <= 0)
    throw std::invalid_argument("A2C: learning rates must be > 0");
  if (config_.gamma < 0 || config_.gamma > 1)
    throw std::invalid_argument("A2C: gamma out of [0,1]");
  util::Rng rng(config_.seed);
  actor_ = ml::nn::make_mlp(obs_size_, config_.hidden, n_actions_, rng);
  critic_ = ml::nn::make_mlp(obs_size_, config_.hidden, 1, rng);
}

std::vector<double> A2C::policy(std::span<const double> observation) const {
  if (observation.size() != obs_size_)
    throw std::invalid_argument("A2C::policy: observation width mismatch");
  std::vector<double> probs(n_actions_);
  actor_.infer_rows(observation.data(), 1, obs_size_, probs.data(),
                    util::scratch_arena());
  ml::nn::softmax_rows(probs.data(), 1, n_actions_);
  return probs;
}

std::size_t A2C::act(std::span<const double> observation, util::Rng& rng) const {
  const std::vector<double> probs = policy(observation);
  return rng.categorical(probs);
}

std::size_t A2C::act_greedy(std::span<const double> observation) const {
  const std::vector<double> probs = policy(observation);
  std::size_t best = 0;
  for (std::size_t a = 1; a < probs.size(); ++a)
    if (probs[a] > probs[best]) best = a;
  return best;
}

double A2C::value(std::span<const double> observation) const {
  if (observation.size() != obs_size_)
    throw std::invalid_argument("A2C::value: observation width mismatch");
  double v = 0.0;
  critic_.infer_rows(observation.data(), 1, obs_size_, &v,
                     util::scratch_arena());
  return v;
}

void A2C::value_batch(ml::BatchView batch, std::span<double> out) const {
  if (batch.cols() != obs_size_)
    throw std::invalid_argument("A2C::value_batch: observation width mismatch");
  if (out.size() != batch.rows())
    throw std::invalid_argument("A2C::value_batch: out size mismatch");
  if (batch.rows() == 0) return;
  // Gather + forward run out of the per-thread arena (zero heap traffic);
  // the critic's layers are row-local, so each row scores as value() does.
  util::ArenaScope scope(util::scratch_arena());
  auto rows = scope.alloc<double>(batch.rows() * obs_size_);
  for (std::size_t c = 0; c < obs_size_; ++c) {
    const ml::ColumnView colc = batch.col(c);
    for (std::size_t r = 0; r < batch.rows(); ++r)
      rows[r * obs_size_ + c] = colc[r];
  }
  auto values = scope.alloc<double>(batch.rows());
  critic_.infer_rows(rows.data(), batch.rows(), obs_size_, values.data(),
                     scope.arena());
  for (std::size_t r = 0; r < batch.rows(); ++r) out[r] = values[r];
}

void A2C::update(std::span<const double> observation, std::size_t action,
                 double reward, double next_value, bool done) {
  if (action >= n_actions_) throw std::invalid_argument("A2C::update: bad action");
  const Matrix obs = Matrix::row_vector(observation);

  // Critic: V(s) toward the TD target (MSE, per the paper).
  const double td_target = reward + (done ? 0.0 : config_.gamma * next_value);
  critic_.zero_grad();
  const Matrix v = critic_.forward(obs);
  Matrix target(1, 1);
  target.at(0, 0) = td_target;
  const ml::nn::LossResult critic_loss = ml::nn::mse_loss(v, target);
  critic_.backward(critic_loss.grad);
  critic_.adam_step(config_.critic_lr);

  const double advantage = td_target - v.at(0, 0);

  // Actor: policy gradient with entropy bonus.
  actor_.zero_grad();
  const Matrix logits = actor_.forward(obs);
  const Matrix probs = ml::nn::softmax(logits);
  // d/dlogits of [-log pi(a|s) * A - beta * H(pi)]:
  //   A * (pi - onehot(a))  +  beta * dH/dlogits  folded below.
  Matrix grad(1, n_actions_);
  for (std::size_t j = 0; j < n_actions_; ++j) {
    const double p = probs.at(0, j);
    const double onehot = (j == action) ? 1.0 : 0.0;
    grad.at(0, j) = advantage * (p - onehot);
    // Entropy H = -sum p log p; dH/dlogit_j = -p_j (log p_j + 1 - sum_k p_k(log p_k + 1))
    // Simplified gradient of -beta*H:
    double entropy_term = std::log(std::max(p, 1e-12)) + 1.0;
    double expectation = 0.0;
    for (std::size_t k = 0; k < n_actions_; ++k) {
      const double pk = probs.at(0, k);
      expectation += pk * (std::log(std::max(pk, 1e-12)) + 1.0);
    }
    grad.at(0, j) += config_.entropy_bonus * p * (entropy_term - expectation);
  }
  actor_.backward(grad);
  actor_.adam_step(config_.actor_lr);
}

EpisodeStats A2C::train_episode(Environment& env, util::Rng& rng,
                                std::size_t max_steps) {
  EpisodeStats stats;
  std::vector<double> obs = env.reset();
  for (std::size_t t = 0; t < max_steps; ++t) {
    const std::size_t action = act(obs, rng);
    StepResult result = env.step(action);
    const double next_value = result.done ? 0.0 : value(result.observation);
    update(obs, action, result.reward, next_value, result.done);
    stats.episode_reward += result.reward;
    ++stats.steps;
    if (result.done) break;
    obs = std::move(result.observation);
  }
  return stats;
}

std::vector<std::uint8_t> A2C::serialize() const {
  util::ByteWriter w;
  w.write_string("A2C");
  w.write_u8(2);  // format version (v2 added the config block)
  std::vector<std::uint64_t> hidden(config_.hidden.begin(), config_.hidden.end());
  w.write_u64_vec(hidden);
  w.write_f64(config_.actor_lr);
  w.write_f64(config_.critic_lr);
  w.write_f64(config_.gamma);
  w.write_f64(config_.entropy_bonus);
  w.write_u64(config_.seed);
  w.write_u64(obs_size_);
  w.write_u64(n_actions_);
  w.write_bytes(actor_.serialize());
  w.write_bytes(critic_.serialize());
  return w.take();
}

A2C A2C::deserialize(std::span<const std::uint8_t> bytes) {
  util::ByteReader r(bytes);
  if (r.read_string() != "A2C")
    throw std::invalid_argument("A2C::deserialize: bad magic");
  if (r.read_u8() != 2)
    throw std::invalid_argument("A2C::deserialize: bad version");
  A2CConfig config;
  const std::vector<std::uint64_t> hidden = r.read_u64_vec();
  config.hidden.assign(hidden.begin(), hidden.end());
  config.actor_lr = r.read_f64();
  config.critic_lr = r.read_f64();
  config.gamma = r.read_f64();
  config.entropy_bonus = r.read_f64();
  config.seed = r.read_u64();
  const auto obs = static_cast<std::size_t>(r.read_u64());
  const auto actions = static_cast<std::size_t>(r.read_u64());
  A2C agent(obs, actions, config);
  agent.actor_ = ml::nn::Network::deserialize(r.read_bytes());
  agent.critic_ = ml::nn::Network::deserialize(r.read_bytes());
  return agent;
}

}  // namespace drlhmd::rl
