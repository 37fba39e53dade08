#include "serve/server.hpp"

#include <chrono>
#include <stdexcept>

#include "obs/clock.hpp"
#include "obs/telemetry.hpp"

namespace drlhmd::serve {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - obs::telemetry_epoch())
          .count());
}

DetectionServer::DetectionServer(core::DetectionRuntime& runtime,
                                 std::size_t feature_width, ServeConfig config)
    : runtime_(runtime),
      config_(config),
      cols_(feature_width),
      max_wait_ns_(static_cast<std::uint64_t>(config.max_wait_us * 1e3)),
      registry_(config.registry != nullptr ? config.registry
                                           : &local_registry_) {
  if (cols_ == 0 || cols_ > kMaxSampleFeatures)
    throw std::invalid_argument(
        "DetectionServer: feature_width must be in [1, kMaxSampleFeatures]");
  if (config_.hosts == 0) throw std::invalid_argument("DetectionServer: hosts");
  if (config_.shards == 0)
    throw std::invalid_argument("DetectionServer: shards");
  if (config_.max_batch == 0)
    throw std::invalid_argument("DetectionServer: max_batch");

  rings_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s)
    rings_.push_back(std::make_unique<MpscRing<HpcSample>>(config_.ring_capacity));
  completions_.reserve(config_.hosts);
  for (std::size_t h = 0; h < config_.hosts; ++h)
    completions_.push_back(
        std::make_unique<SpscRing<VerdictRecord>>(config_.completion_capacity));
  sessions_ = std::make_unique<HostSession[]>(config_.hosts);
  tile_ = ml::FeatureMatrix(config_.max_batch, cols_);
  meta_.resize(config_.max_batch);
  verdicts_.resize(config_.max_batch);

  obs::MetricsRegistry& reg = *registry_;
  enqueued_ = &reg.counter("drlhmd.serve.enqueued");
  dropped_ = &reg.counter("drlhmd.serve.dropped");
  scored_ = &reg.counter("drlhmd.serve.scored");
  delivered_ = &reg.counter("drlhmd.serve.delivered");
  completion_dropped_ = &reg.counter("drlhmd.serve.completion_dropped");
  batches_ = &reg.counter("drlhmd.serve.batches");
  flush_full_ = &reg.counter("drlhmd.serve.flushes", {{"reason", "full"}});
  flush_wait_ = &reg.counter("drlhmd.serve.flushes", {{"reason", "wait"}});
  flush_drain_ = &reg.counter("drlhmd.serve.flushes", {{"reason", "drain"}});
  retrains_ = &reg.counter("drlhmd.serve.retrains");
  e2e_us_ = &reg.tail("drlhmd.serve.e2e_us");
  batch_rows_ = &reg.tail("drlhmd.serve.batch_rows");
  score_us_ = &reg.tail("drlhmd.serve.score_us");
}

DetectionServer::~DetectionServer() { stop(); }

DetectionServer::EnqueueResult DetectionServer::try_enqueue(
    std::uint32_t host, std::span<const double> features,
    std::uint64_t enqueue_tick_ns) {
  if (host >= config_.hosts)
    throw std::out_of_range("DetectionServer::try_enqueue: bad host id");
  if (features.size() != cols_)
    throw std::invalid_argument(
        "DetectionServer::try_enqueue: feature width mismatch");

  HostSession& session = sessions_[host];
  EnqueueResult result;
  // The sequence is burned whether or not the push lands: the gap a
  // consumer sees in delivered sequence numbers is exactly its drop count.
  result.seq = session.next_seq.fetch_add(1, std::memory_order_relaxed);

  HpcSample sample;
  sample.host = host;
  sample.seq = result.seq;
  sample.enqueue_tick_ns = enqueue_tick_ns != 0 ? enqueue_tick_ns : now_ns();
  for (std::size_t c = 0; c < cols_; ++c) sample.features[c] = features[c];

  if (rings_[shard_of(host)]->try_push(sample)) {
    session.enqueued.fetch_add(1, std::memory_order_relaxed);
    enqueued_->inc();
    result.accepted = true;
  } else {
    session.dropped.fetch_add(1, std::memory_order_relaxed);
    session.last_verdict.store(
        static_cast<std::uint8_t>(core::TrafficVerdict::kDropped),
        std::memory_order_relaxed);
    dropped_->inc();
  }
  return result;
}

std::size_t DetectionServer::stage() {
  std::size_t popped = 0;
  const std::size_t n_shards = rings_.size();
  for (std::size_t visited = 0;
       visited < n_shards && staged_ < config_.max_batch; ++visited) {
    MpscRing<HpcSample>& ring = *rings_[(next_shard_ + visited) % n_shards];
    HpcSample sample;
    while (staged_ < config_.max_batch && ring.try_pop(sample)) {
      if (staged_ == 0) oldest_tick_ns_ = sample.enqueue_tick_ns;
      for (std::size_t c = 0; c < cols_; ++c)
        tile_.at(staged_, c) = sample.features[c];
      meta_[staged_] = sample;
      ++staged_;
      ++popped;
    }
  }
  // Rotate the starting shard so a hot shard cannot starve the others of
  // tile space when the batcher is saturated.
  next_shard_ = (next_shard_ + 1) % n_shards;
  return popped;
}

std::size_t DetectionServer::flush(FlushReason reason) {
  const std::size_t n = staged_;
  if (n == 0) return 0;

  const bool traced = obs::Telemetry::enabled();
  const double start_us = obs::now_us_since_epoch();
  const core::BatchOutcome outcome = runtime_.process_batch(
      tile_.view().rows_slice(0, n),
      std::span<core::TrafficVerdict>(verdicts_.data(), n));
  if (outcome.retrains != 0) retrains_->inc(outcome.retrains);
  const std::uint64_t verdict_tick = now_ns();
  score_us_->observe(obs::now_us_since_epoch() - start_us);
  batch_rows_->observe(static_cast<double>(n));
  scored_->inc(n);
  batches_->inc();
  switch (reason) {
    case FlushReason::kFull: flush_full_->inc(); break;
    case FlushReason::kWait: flush_wait_->inc(); break;
    case FlushReason::kDrain: flush_drain_->inc(); break;
  }

  std::uint64_t routed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const HpcSample& meta = meta_[i];
    HostSession& session = sessions_[meta.host];
    VerdictRecord record;
    record.host = meta.host;
    record.seq = meta.seq;
    record.verdict = verdicts_[i];
    record.enqueue_tick_ns = meta.enqueue_tick_ns;
    record.verdict_tick_ns = verdict_tick;
    if (completions_[meta.host]->try_push(record)) {
      session.delivered.fetch_add(1, std::memory_order_relaxed);
      ++routed;
    } else {
      session.completion_dropped.fetch_add(1, std::memory_order_relaxed);
      completion_dropped_->inc();
    }
    session.last_verdict.store(static_cast<std::uint8_t>(verdicts_[i]),
                               std::memory_order_relaxed);
    // End-to-end latency from the (possibly scheduled) enqueue tick; a
    // tick stamped "in the future" by a jittery producer clamps to zero
    // rather than wrapping.
    const double e2e_us =
        verdict_tick >= meta.enqueue_tick_ns
            ? static_cast<double>(verdict_tick - meta.enqueue_tick_ns) / 1e3
            : 0.0;
    e2e_us_->observe(e2e_us);
  }
  if (routed != 0) delivered_->inc(routed);
  if (traced) {
    obs::Telemetry::tracer().complete_event(
        "serve.flush", "serve", start_us,
        obs::now_us_since_epoch() - start_us);
  }
  staged_ = 0;
  return n;
}

std::size_t DetectionServer::drain() {
  std::size_t total = 0;
  for (;;) {
    stage();
    if (staged_ == 0) return total;
    total += flush(staged_ >= config_.max_batch ? FlushReason::kFull
                                                : FlushReason::kDrain);
  }
}

std::size_t DetectionServer::poll() {
  if (running())
    throw std::logic_error(
        "DetectionServer::poll: the drain thread is running");
  return drain();
}

void DetectionServer::drain_main() {
  while (running_.load(std::memory_order_acquire)) {
    const std::size_t popped = stage();
    if (staged_ >= config_.max_batch) {
      flush(FlushReason::kFull);
      continue;
    }
    if (staged_ > 0 &&
        static_cast<std::int64_t>(now_ns() - oldest_tick_ns_) >=
            static_cast<std::int64_t>(max_wait_ns_)) {
      flush(FlushReason::kWait);
      continue;
    }
    if (popped == 0) {
      // Idle backoff: short enough to keep the max_wait_us promise, long
      // enough not to burn the core the scoring path needs.
      std::this_thread::sleep_for(
          std::chrono::microseconds(staged_ > 0 ? 5 : 20));
    }
  }
  // Shutdown drain: every accepted sample still gets a verdict.
  drain();
}

void DetectionServer::start() {
  if (running()) return;
  running_.store(true, std::memory_order_release);
  drain_thread_ = std::thread([this] { drain_main(); });
}

void DetectionServer::stop() {
  if (!running()) return;
  running_.store(false, std::memory_order_release);
  if (drain_thread_.joinable()) drain_thread_.join();
}

bool DetectionServer::try_pop_verdict(std::uint32_t host, VerdictRecord& out) {
  if (host >= config_.hosts)
    throw std::out_of_range("DetectionServer::try_pop_verdict: bad host id");
  return completions_[host]->try_pop(out);
}

HostSessionSnapshot DetectionServer::session(std::uint32_t host) const {
  if (host >= config_.hosts)
    throw std::out_of_range("DetectionServer::session: bad host id");
  const HostSession& s = sessions_[host];
  HostSessionSnapshot snap;
  snap.host = host;
  snap.next_seq = s.next_seq.load(std::memory_order_relaxed);
  snap.enqueued = s.enqueued.load(std::memory_order_relaxed);
  snap.dropped = s.dropped.load(std::memory_order_relaxed);
  snap.delivered = s.delivered.load(std::memory_order_relaxed);
  snap.completion_dropped =
      s.completion_dropped.load(std::memory_order_relaxed);
  snap.last_verdict = static_cast<core::TrafficVerdict>(
      s.last_verdict.load(std::memory_order_relaxed));
  return snap;
}

ServeStats DetectionServer::stats() const {
  ServeStats stats;
  stats.enqueued = enqueued_->value();
  stats.dropped = dropped_->value();
  stats.scored = scored_->value();
  stats.delivered = delivered_->value();
  stats.completion_dropped = completion_dropped_->value();
  stats.batches = batches_->value();
  stats.flush_full = flush_full_->value();
  stats.flush_wait = flush_wait_->value();
  stats.flush_drain = flush_drain_->value();
  stats.retrains = retrains_->value();
  for (const auto& ring : rings_) stats.queue_depth += ring->size();
  return stats;
}

void DetectionServer::publish_gauges() {
  std::size_t depth = 0;
  for (const auto& ring : rings_) depth += ring->size();
  obs::MetricsRegistry& reg = *registry_;
  reg.gauge("drlhmd.serve.queue_depth").set(static_cast<double>(depth));
  reg.gauge("drlhmd.serve.dropped_total")
      .set(static_cast<double>(dropped_->value() +
                              completion_dropped_->value()));
  reg.gauge("drlhmd.serve.sessions")
      .set(static_cast<double>(config_.hosts));
}

}  // namespace drlhmd::serve
