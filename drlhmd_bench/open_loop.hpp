// Open-loop traffic for drlhmd_bench: one producer thread drives every
// simulated host on a Poisson schedule, one collector thread drains every
// completion queue and checks each verdict against the verdict precomputed
// for its pool row.
//
// Unlike serve::run_open_loop, the row a sample carries is a pure function
// of (seed, host, seq), so the collector can re-derive it from the verdict
// record alone and check correctness without any shared state.  Latency is
// charged from the *scheduled* arrival tick (coordinated-omission-safe), and
// the producer records how late it ran against its own schedule.
#pragma once

#include <cstdint>
#include <span>

#include "core/runtime.hpp"
#include "ml/feature_matrix.hpp"
#include "obs/tail_histogram.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"

namespace drlhmd::bench {

/// The paper's HPC sampling window: a verdict later than this misses it.
inline constexpr double kSloUs = 10'000.0;

struct Traffic {
  double rate_per_s = 0.0;   // aggregate Poisson arrival rate
  double warmup_s = 0.0;     // leading arrivals excluded from latency metrics
  double measure_s = 0.0;    // arrivals after warm-up that are measured
  std::uint64_t seed = 0;    // arrival times and row choice
};

/// Expected outcome per pool row.  `flag_only` compares only the
/// predictor's adversarial flag (the detector behind it may be retrained
/// mid-run, so its verdicts are not fixed).
struct Oracle {
  std::span<const core::TrafficVerdict> expected;
  bool flag_only = false;
};

struct OpenLoopReport {
  std::uint64_t attempted = 0;           // try_enqueue calls, warm-up included
  std::uint64_t dropped = 0;             // shed at a full ring
  std::uint64_t delivered = 0;           // verdicts collected
  std::uint64_t wrong = 0;               // verdicts that disagree with the oracle
  std::uint64_t seq_errors = 0;          // stamped seq or per-host order broken
  std::uint64_t session_errors = 0;      // hosts whose seq gaps != their drops
  std::uint64_t measured_attempted = 0;  // arrivals scheduled after warm-up
  std::uint64_t slo_met = 0;             // ... answered correctly within kSloUs
  bool drained = false;                  // every accepted sample got a verdict
  obs::TailHistogram e2e_us;             // measured: scheduled tick -> verdict
  obs::TailHistogram lag_us;             // measured: producer lateness
  obs::TailHistogram enqueue_us;         // traced only: try_enqueue call time
};

/// Drive a fresh, idle server with `traffic` over `pool`, then stop it.
/// With a tracer, try_enqueue is timed and one request in 256 is recorded
/// as a span (flow-linked to its serve.try_enqueue child span).
OpenLoopReport run_open_loop(serve::DetectionServer& server, ml::BatchView pool,
                             const Oracle& oracle, const Traffic& traffic,
                             obs::Tracer* tracer);

}  // namespace drlhmd::bench
