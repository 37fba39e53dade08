// Process-wide telemetry facade.
//
// Telemetry is OFF by default: instrumented call sites test one relaxed
// atomic bool and fall through, so the hot paths measured by the benches
// stay at seed performance.  `hmdctl telemetry`, tests, or any embedder
// flips it on to collect metrics (global MetricsRegistry), phase spans
// (global Tracer), and structured logs.
//
// Setting DRLHMD_TRACE_FILE=<path> in the environment enables telemetry at
// process start and writes the full Chrome trace-event JSON to <path> at
// exit — zero-code tracing for any binary linked against obs.
#pragma once

#include <chrono>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace drlhmd::obs {

class Telemetry {
 public:
  static bool enabled() {
    return enabled_flag().load(std::memory_order_relaxed);
  }
  static void set_enabled(bool on) {
    if (on) install_parallel_bridge();
    enabled_flag().store(on, std::memory_order_relaxed);
  }

  /// Global registry/tracer; valid for the process lifetime.
  static MetricsRegistry& metrics();
  static Tracer& tracer();

  /// Clear all recorded telemetry (tests and repeated CLI runs).
  static void reset();

  /// Snapshot the scratch-arena registry into drlhmd.arena.* gauges
  /// (arenas, capacity_bytes, high_water_bytes, scope_reuses,
  /// chunk_allocations).  Pull-based: call before exporting the registry —
  /// the serving hot paths never touch the metrics registry themselves.
  static void publish_arena_gauges();

 private:
  /// Register the drlhmd.parallel.* observer on the util thread pool
  /// (idempotent); done lazily so telemetry-off processes never pay it.
  static void install_parallel_bridge();

  static std::atomic<bool>& enabled_flag();
};

/// A span on the global tracer, or an inert Span when telemetry is off.
inline Span phase_span(std::string name) {
  if (!Telemetry::enabled()) return Span{};
  return Telemetry::tracer().span(std::move(name));
}

/// RAII latency recorder: observes elapsed microseconds into an exact tail
/// histogram on destruction.  A null target makes it a no-op that skips the
/// clock reads entirely.
class ScopedLatency {
 public:
  explicit ScopedLatency(ShardedTailHistogram* tail) : tail_(tail) {
    if (tail_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;
  ~ScopedLatency() {
    if (tail_ == nullptr) return;
    tail_->observe(std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - start_)
                       .count());
  }

 private:
  ShardedTailHistogram* tail_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace drlhmd::obs
