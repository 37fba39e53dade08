// Detection-as-a-service: multi-tenant streaming front end over a trained
// DetectionRuntime (ROADMAP item 1, DESIGN.md §13).
//
// Thousands of simulated hosts push fixed-size HPC samples into per-shard
// lock-free MPSC rings (serve/ring.hpp) — the enqueue path is one CAS plus
// one release store, never a lock, never a heap allocation.  One drain
// thread visits every shard ring round-robin and feeds an *adaptive
// batcher*: rows accumulate into a pre-sized columnar staging tile until
// either `max_batch` rows are staged or the oldest staged sample has waited
// `max_wait_us` microseconds, whichever happens first; the tile is then
// scored in one DetectionRuntime::process_batch pass (the speculative
// parallel path, arena-backed and zero-heap at steady state) and verdicts
// are routed back to per-host SPSC completion queues.  Only the drain
// thread, or a poll() caller while it is stopped, ever scores, so the
// runtime's single-threaded contract holds without a lock.
//
// Session discipline: every host has a HostSession tracking its sample
// sequence, enqueue/drop/delivery counters and last verdict.  Sequence
// numbers are stamped on *arrival* — a sample shed at a full ring burns
// its sequence number, so gaps in the delivered stream are exactly the
// backpressure drops (which the caller reports as TrafficVerdict::kDropped).
// Hosts map to shards statically (host % shards); several rings only
// spread the producers' claim traffic.  The drain thread is the one writer
// of every completion queue, which keeps each queue single-producer.
//
// Latency accounting: samples carry a caller-supplied enqueue tick (defaults
// to "now") measured in nanoseconds since the shared obs telemetry epoch;
// the flush path stamps a verdict tick from the same epoch and records the
// end-to-end enqueue→verdict time into the drlhmd.serve.e2e_us exact tail
// histogram.  An open-loop load generator passes the *scheduled* arrival
// tick instead of the actual push time, which makes the recorded tails
// coordinated-omission-safe.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "core/runtime.hpp"
#include "ml/feature_matrix.hpp"
#include "obs/metrics.hpp"
#include "serve/ring.hpp"

namespace drlhmd::serve {

/// Widest sample the wire format carries; the engineered feature space is
/// 4-wide, so 16 leaves headroom without bloating the ring slots.
inline constexpr std::size_t kMaxSampleFeatures = 16;

/// Nanoseconds since the shared obs telemetry epoch (steady clock).
std::uint64_t now_ns();

/// One HPC sample on the ingestion ring (trivially copyable wire format).
struct HpcSample {
  std::uint32_t host = 0;
  std::uint32_t seq = 0;
  std::uint64_t enqueue_tick_ns = 0;
  double features[kMaxSampleFeatures] = {};
};

/// One verdict on a host's completion queue.
struct VerdictRecord {
  std::uint32_t host = 0;
  std::uint32_t seq = 0;
  core::TrafficVerdict verdict = core::TrafficVerdict::kBenign;
  std::uint64_t enqueue_tick_ns = 0;
  std::uint64_t verdict_tick_ns = 0;
};

/// Read-only copy of one host's session counters.
struct HostSessionSnapshot {
  std::uint32_t host = 0;
  std::uint32_t next_seq = 0;        // sequence the next arrival will get
  std::uint64_t enqueued = 0;        // samples accepted into the ring
  std::uint64_t dropped = 0;         // samples shed at a full ring
  std::uint64_t delivered = 0;       // verdicts routed to the completion queue
  std::uint64_t completion_dropped = 0;  // verdicts shed at a full completion queue
  core::TrafficVerdict last_verdict = core::TrafficVerdict::kBenign;
};

struct ServeConfig {
  std::size_t hosts = 64;
  std::size_t shards = 1;            // ingestion rings (hosts map host % shards)
  std::size_t ring_capacity = 4096;  // per shard; rounded up to a power of two
  std::size_t completion_capacity = 256;  // per host; rounded up likewise
  std::size_t max_batch = 256;       // adaptive batcher: row cap per flush
  double max_wait_us = 500.0;        // adaptive batcher: oldest-sample age cap
  /// Registry receiving drlhmd.serve.* metrics; null keeps one private.
  obs::MetricsRegistry* registry = nullptr;
};

/// Aggregate serving counters (relaxed snapshot; exact when quiescent).
struct ServeStats {
  std::uint64_t enqueued = 0;
  std::uint64_t dropped = 0;
  std::uint64_t scored = 0;
  std::uint64_t delivered = 0;
  std::uint64_t completion_dropped = 0;
  std::uint64_t batches = 0;
  std::uint64_t flush_full = 0;   // flushes triggered by max_batch
  std::uint64_t flush_wait = 0;   // flushes triggered by max_wait_us
  std::uint64_t flush_drain = 0;  // forced flushes (poll() / shutdown)
  std::uint64_t retrains = 0;     // adaptive retrains fired while serving
  std::uint64_t queue_depth = 0;  // ring occupancy sampled at stats() time
};

/// Long-lived multi-tenant serving front end over one DetectionRuntime.
///
/// Threading contract: each host must be fed by exactly one producer
/// thread (any number of hosts per producer; the per-shard rings are MPSC
/// so producers never coordinate), each host's completion queue must be
/// drained by exactly one consumer thread, and either the background
/// drain thread runs (start()/stop()) or a single thread pumps poll() —
/// never both at once.
class DetectionServer {
 public:
  DetectionServer(core::DetectionRuntime& runtime, std::size_t feature_width,
                  ServeConfig config = {});
  ~DetectionServer();
  DetectionServer(const DetectionServer&) = delete;
  DetectionServer& operator=(const DetectionServer&) = delete;

  struct EnqueueResult {
    bool accepted = false;
    std::uint32_t seq = 0;  // stamped even when the sample was shed
  };

  /// Producer path: stamp the host's next sequence number and push the
  /// sample onto its shard's ring.  Lock-free and allocation-free; on a
  /// full ring the sample is counted as dropped (callers surface it as
  /// TrafficVerdict::kDropped).  `enqueue_tick_ns` = 0 stamps "now"; an
  /// open-loop load generator passes the scheduled arrival tick instead so
  /// recorded latencies stay coordinated-omission-safe.
  EnqueueResult try_enqueue(std::uint32_t host,
                            std::span<const double> features,
                            std::uint64_t enqueue_tick_ns = 0);

  /// Manual pump (tests, smoke modes): drain every ring on the calling
  /// thread, force-flushing staged rows in max_batch-sized tiles until the
  /// rings are empty.  Returns the number of verdicts produced.  Must not
  /// be called while the background drain thread runs.
  std::size_t poll();

  /// Start/stop the background drain thread.  stop() drains the rings and
  /// flushes any staged rows before joining, so every accepted sample gets
  /// a verdict (producers must be quiesced first).
  void start();
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Consumer path for one host's completion queue (single consumer).
  bool try_pop_verdict(std::uint32_t host, VerdictRecord& out);

  HostSessionSnapshot session(std::uint32_t host) const;
  ServeStats stats() const;

  /// Fold current depth/drop totals into drlhmd.serve.* gauges
  /// (queue_depth, dropped_total, sessions) — pull-based, like
  /// obs::Telemetry::publish_arena_gauges().
  void publish_gauges();

  const ServeConfig& config() const { return config_; }
  std::size_t feature_width() const { return cols_; }
  const obs::MetricsRegistry& metrics() const { return *registry_; }
  std::size_t shard_of(std::uint32_t host) const {
    return host % config_.shards;
  }

 private:
  enum class FlushReason { kFull, kWait, kDrain };

  /// Mutable per-host session state (single-writer fields, relaxed atomics
  /// so stats() can read them from any thread); padded so one host's
  /// producer and the drain thread never share a line.
  struct alignas(kCacheLineBytes) HostSession {
    std::atomic<std::uint32_t> next_seq{0};
    std::atomic<std::uint64_t> enqueued{0};
    std::atomic<std::uint64_t> dropped{0};
    std::atomic<std::uint64_t> delivered{0};
    std::atomic<std::uint64_t> completion_dropped{0};
    std::atomic<std::uint8_t> last_verdict{0};
  };

  std::size_t stage();
  std::size_t flush(FlushReason reason);
  /// Stage and flush (kFull or kDrain) until the rings and the tile are
  /// empty: poll() and the drain thread's shutdown.
  std::size_t drain();
  void drain_main();

  core::DetectionRuntime& runtime_;
  ServeConfig config_;
  std::size_t cols_;
  std::uint64_t max_wait_ns_;

  std::vector<std::unique_ptr<MpscRing<HpcSample>>> rings_;        // per shard
  std::vector<std::unique_ptr<SpscRing<VerdictRecord>>> completions_;  // per host
  std::unique_ptr<HostSession[]> sessions_;

  // Staging state: a fixed-shape columnar tile plus row metadata, pre-sized
  // so the steady-state drain loop never touches the heap.
  ml::FeatureMatrix tile_;                      // max_batch x cols, fixed
  std::vector<HpcSample> meta_;                 // staged row -> wire metadata
  std::vector<core::TrafficVerdict> verdicts_;  // max_batch slots
  std::size_t staged_ = 0;
  std::uint64_t oldest_tick_ns_ = 0;            // enqueue tick of first staged row
  std::size_t next_shard_ = 0;                  // round-robin cursor

  std::atomic<bool> running_{false};

  obs::MetricsRegistry local_registry_;
  obs::MetricsRegistry* registry_;
  // Cached handles: one relaxed atomic op per update on the hot path.
  obs::Counter* enqueued_;
  obs::Counter* dropped_;
  obs::Counter* scored_;
  obs::Counter* delivered_;
  obs::Counter* completion_dropped_;
  obs::Counter* batches_;
  obs::Counter* flush_full_;
  obs::Counter* flush_wait_;
  obs::Counter* flush_drain_;
  obs::Counter* retrains_;
  // Always-on serving SLO recorders (wait-free, allocation-free once each
  // recording thread's shard exists): end-to-end enqueue→verdict latency,
  // per-flush batch size, and per-flush scoring wall time.
  obs::ShardedTailHistogram* e2e_us_;
  obs::ShardedTailHistogram* batch_rows_;
  obs::ShardedTailHistogram* score_us_;

  std::thread drain_thread_;  // last: it uses every member above
};

}  // namespace drlhmd::serve
