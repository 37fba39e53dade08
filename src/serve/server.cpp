#include "serve/server.hpp"

#include <chrono>
#include <stdexcept>

#include "obs/clock.hpp"
#include "obs/telemetry.hpp"
#include "util/parallel.hpp"

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
  if (config_.workers == 0) config_.workers = 1;
  // A worker with no shards would spin forever; shards bound the useful
  // drain parallelism.
  if (config_.workers > config_.shards) config_.workers = config_.shards;

  rings_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s)
    rings_.push_back(std::make_unique<MpscRing<HpcSample>>(config_.ring_capacity));
  completions_.reserve(config_.hosts);
  for (std::size_t h = 0; h < config_.hosts; ++h)
    completions_.push_back(
        std::make_unique<SpscRing<VerdictRecord>>(config_.completion_capacity));
  sessions_ = std::make_unique<HostSession[]>(config_.hosts);

  workers_.reserve(config_.workers);
  for (std::size_t w = 0; w < config_.workers; ++w) {
    auto worker = std::make_unique<Worker>();
    worker->index = w;
    worker->tile = ml::FeatureMatrix(config_.max_batch, cols_);
    worker->meta.resize(config_.max_batch);
    worker->verdicts.resize(config_.max_batch);
    worker->next_shard = w;
    workers_.push_back(std::move(worker));
  }

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
  const obs::TailConfig& tail_cfg = obs::default_latency_tail_config();
  e2e_us_ = &reg.tail("drlhmd.serve.e2e_us", tail_cfg);
  batch_rows_ = &reg.tail("drlhmd.serve.batch_rows", tail_cfg);
  score_us_ = &reg.tail("drlhmd.serve.score_us", tail_cfg);
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

std::size_t DetectionServer::stage(Worker& worker, bool all_shards) {
  std::size_t popped = 0;
  const std::size_t n_shards = rings_.size();
  for (std::size_t visited = 0;
       visited < n_shards && worker.staged < config_.max_batch; ++visited) {
    const std::size_t s = (worker.next_shard + visited) % n_shards;
    if (!all_shards && s % config_.workers != worker.index) continue;
    HpcSample sample;
    while (worker.staged < config_.max_batch && rings_[s]->try_pop(sample)) {
      if (worker.staged == 0) worker.oldest_tick_ns = sample.enqueue_tick_ns;
      for (std::size_t c = 0; c < cols_; ++c)
        worker.tile.at(worker.staged, c) = sample.features[c];
      worker.meta[worker.staged] = sample;
      ++worker.staged;
      ++popped;
    }
  }
  // Rotate the starting shard so a hot shard cannot starve the others of
  // tile space when the batcher is saturated.
  worker.next_shard = (worker.next_shard + 1) % n_shards;
  return popped;
}

std::size_t DetectionServer::flush(Worker& worker, FlushReason reason) {
  const std::size_t n = worker.staged;
  if (n == 0) return 0;

  const bool traced = obs::Telemetry::enabled();
  const double start_us = obs::now_us_since_epoch();
  {
    // The runtime is single-threaded by contract; with the default one
    // drain worker this lock is uncontended and the fast path stays
    // lock-free end to end (the lock only serializes multi-worker flushes).
    std::lock_guard<std::mutex> lock(score_mu_);
    const core::BatchOutcome outcome = runtime_.process_batch(
        worker.tile.view().rows_slice(0, n),
        std::span<core::TrafficVerdict>(worker.verdicts.data(), n));
    if (outcome.retrains != 0) retrains_->inc(outcome.retrains);
  }
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
    const HpcSample& meta = worker.meta[i];
    HostSession& session = sessions_[meta.host];
    VerdictRecord record;
    record.host = meta.host;
    record.seq = meta.seq;
    record.verdict = worker.verdicts[i];
    record.enqueue_tick_ns = meta.enqueue_tick_ns;
    record.verdict_tick_ns = verdict_tick;
    if (completions_[meta.host]->try_push(record)) {
      session.delivered.fetch_add(1, std::memory_order_relaxed);
      ++routed;
    } else {
      session.completion_dropped.fetch_add(1, std::memory_order_relaxed);
      completion_dropped_->inc();
    }
    session.last_verdict.store(static_cast<std::uint8_t>(worker.verdicts[i]),
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
  worker.staged = 0;
  return n;
}

std::size_t DetectionServer::poll() {
  if (running())
    throw std::logic_error(
        "DetectionServer::poll: background workers are running");
  Worker& worker = *workers_[0];
  std::size_t total = 0;
  for (;;) {
    stage(worker, /*all_shards=*/true);
    if (worker.staged == 0) break;
    total += flush(worker, worker.staged >= config_.max_batch
                               ? FlushReason::kFull
                               : FlushReason::kDrain);
  }
  return total;
}

void DetectionServer::worker_main(Worker& worker) {
  if (config_.pin_workers) util::pin_current_thread(worker.index);
  while (running_.load(std::memory_order_acquire)) {
    const std::size_t popped = stage(worker, /*all_shards=*/false);
    if (worker.staged >= config_.max_batch) {
      flush(worker, FlushReason::kFull);
      continue;
    }
    if (worker.staged > 0 &&
        static_cast<std::int64_t>(now_ns() - worker.oldest_tick_ns) >=
            static_cast<std::int64_t>(max_wait_ns_)) {
      flush(worker, FlushReason::kWait);
      continue;
    }
    if (popped == 0) {
      // Idle backoff: short enough to keep the max_wait_us promise, long
      // enough not to burn the core the scoring path needs.
      std::this_thread::sleep_for(std::chrono::microseconds(
          worker.staged > 0 ? 5 : 20));
    }
  }
  // Shutdown drain: every accepted sample still gets a verdict.
  for (;;) {
    stage(worker, /*all_shards=*/false);
    if (worker.staged == 0) break;
    flush(worker, worker.staged >= config_.max_batch ? FlushReason::kFull
                                                     : FlushReason::kDrain);
  }
}

void DetectionServer::start() {
  if (running()) return;
  running_.store(true, std::memory_order_release);
  for (auto& worker : workers_)
    worker->thread = std::thread([this, w = worker.get()] { worker_main(*w); });
}

void DetectionServer::stop() {
  if (!running()) return;
  running_.store(false, std::memory_order_release);
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
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
