// Open-loop load generation for DetectionServer (the measurement half of
// detection-as-a-service; DESIGN.md §13).
//
// Each simulated host emits samples as a Poisson process: inter-arrival
// times are exponential draws at rate offered_per_sec / hosts, scheduled on
// a per-producer min-heap of (next_tick, host).  The generator is *open
// loop* — a host's next arrival is scheduled from the previous arrival's
// scheduled tick, never from when the server accepted it — and every sample
// is stamped with its **scheduled** tick, so a sample that queues behind a
// slow flush is charged the full time it would have waited in the real
// world.  That is what makes the recorded tails coordinated-omission-safe:
// a closed-loop recorder stops sampling exactly when the server is slow,
// and its p999 lies.
//
// One collector thread is the single consumer of every per-host completion
// queue; it computes enqueue-tick → verdict-tick latency from the record
// itself into a private (single-writer) TailHistogram, so each load point
// reports its own isolated tail, independent of the server's cumulative
// drlhmd.serve.e2e_us recorder.
#pragma once

#include <cstdint>

#include "ml/feature_matrix.hpp"
#include "obs/tail_histogram.hpp"
#include "serve/server.hpp"

namespace drlhmd::serve {

struct LoadGenConfig {
  double offered_per_sec = 10000.0;  // aggregate arrival rate across hosts
  double duration_s = 1.0;           // producer run time
  std::size_t producers = 1;         // producer threads (hosts partition)
  std::uint64_t seed = 42;           // row choice + inter-arrival draws
  double drain_timeout_s = 30.0;     // max wait for in-flight samples
};

/// One offered-load point of a sweep.
struct LoadPointReport {
  double offered_per_sec = 0.0;   // configured arrival rate
  double duration_s = 0.0;        // configured producer run time
  double wall_s = 0.0;            // first scheduled tick -> last verdict
  std::uint64_t attempted = 0;    // try_enqueue calls (accepted + shed)
  std::uint64_t enqueued = 0;     // accepted into the rings
  std::uint64_t dropped = 0;      // shed at full rings (backpressure)
  std::uint64_t delivered = 0;    // verdicts collected
  double sustained_per_sec = 0.0; // delivered / wall_s
  double drop_rate = 0.0;         // dropped / attempted
  double delivered_ratio = 0.0;   // delivered / attempted
  bool drained = false;           // all accepted samples got verdicts in time
  /// Scheduled-enqueue -> verdict latency (us), isolated to this point.
  obs::TailHistogram::Snapshot e2e_us;
};

/// Drive one offered-load point against the server: start its drain
/// thread, run the producers open-loop over `rows` (each arrival sends a
/// uniformly drawn row) for duration_s, wait for the rings to drain, stop
/// the drain thread, and report.  The server must be idle (not running, empty
/// completion queues, this thread the only user) on entry; it is returned
/// idle.
LoadPointReport run_open_loop(DetectionServer& server, ml::BatchView rows,
                              const LoadGenConfig& config);

}  // namespace drlhmd::serve
