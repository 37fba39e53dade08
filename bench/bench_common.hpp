// Shared setup for the reproduction harness: every bench binary builds the
// same full-scale pipeline (or a reduced one when DRLHMD_BENCH_SCALE is set
// between 0 and 1) and prints paper-style tables via util::Table.
//
// Setting DRLHMD_TELEMETRY=1 turns on the obs subsystem for the run: the
// pipeline records phase spans + gauges, and a JSON snapshot (metrics +
// trace) is emitted on stderr alongside the usual tables.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include <algorithm>

#include "core/framework.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace drlhmd::bench {

/// Parse the whole of `text` as a number, or exit 2 naming the flag: empty
/// input, trailing text, out-of-range and non-finite values are usage
/// errors, never a silent 0.
template <typename T>
T parse_number_or_exit(const std::string& flag, const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || text.empty() ||
      !std::isfinite(static_cast<double>(value))) {
    std::fprintf(stderr, "bad value for %s: '%s'\n", flag.c_str(),
                 text.c_str());
    std::exit(2);
  }
  return value;
}

/// Apply the shared bench CLI: `--threads N` (or `--threads=N`) pins the
/// parallel pool width for the run, overriding ambient DRLHMD_THREADS so CI
/// can fix the thread count explicitly.  A malformed or non-positive count
/// exits 2.  Other arguments are left alone (each bench may layer its own
/// flags on top).
inline void apply_bench_cli(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--threads") {
      value = i + 1 < argc ? argv[++i] : "";
    } else if (arg.rfind("--threads=", 0) == 0) {
      value = arg.substr(10);
    } else {
      continue;
    }
    const auto n = parse_number_or_exit<std::size_t>("--threads", value);
    if (n < 1) {
      std::fprintf(stderr, "--threads must be positive\n");
      std::exit(2);
    }
    util::set_parallel_threads(n);
    std::fprintf(stderr, "[bench] --threads %zu (pool width %zu)\n", n,
                 util::parallel_thread_count());
  }
}

/// Discard warmup-iteration latencies from the telemetry tail recorders so
/// a DRLHMD_TELEMETRY=1 run's reported quantiles cover only the measured
/// region.  Counters and gauges keep their values, and every cached metric
/// handle stays valid.
inline void reset_telemetry_recorders() {
  if (obs::Telemetry::enabled()) obs::Telemetry::metrics().reset_recorders();
}

/// Best-of-N wall time: `warmup` untimed passes (caches, arenas, lazily
/// allocated tail shards), then the recorders are reset so the warmup's
/// latencies never pollute the measured tails, then N timed passes.
template <typename Fn>
double best_seconds(Fn&& fn, int reps = 9, int warmup = 1) {
  for (int w = 0; w < warmup; ++w) fn();
  reset_telemetry_recorders();
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    util::Timer timer;
    fn();
    best = std::min(best, timer.elapsed_seconds());
  }
  return best;
}

/// Unified BENCH_*.json writer (schema "drlhmd-bench/1"): machine-run
/// context plus a flat list of named metrics, each carrying its unit and
/// direction so tools/benchdiff can compare documents without guessing.
///
///   {"schema":"drlhmd-bench/1","bench":"batch_inference",
///    "context":{"test_rows":8000,...},
///    "metrics":[{"name":"RF.batch_speedup","value":3.7,"unit":"x",
///                "higher_is_better":true},...]}
class BenchWriter {
 public:
  explicit BenchWriter(std::string bench_name)
      : bench_(std::move(bench_name)) {}

  void context(const std::string& key, std::uint64_t v) {
    context_.emplace_back(key, std::to_string(v));
  }
  void context(const std::string& key, const std::string& v) {
    obs::JsonWriter w;
    w.value(std::string_view(v));
    context_.emplace_back(key, w.str());
  }

  void metric(std::string name, double value, std::string unit,
              bool higher_is_better) {
    metrics_.push_back(
        {std::move(name), value, std::move(unit), higher_is_better});
  }

  /// Render the complete document.
  std::string str() const {
    obs::JsonWriter w;
    w.begin_object();
    w.kv("schema", std::string_view("drlhmd-bench/1"));
    w.kv("bench", std::string_view(bench_));
    w.key("context").begin_object();
    for (const auto& [k, v] : context_) w.key(k).raw(v);
    w.end_object();
    w.key("metrics").begin_array();
    for (const auto& m : metrics_) {
      w.begin_object()
          .kv("name", std::string_view(m.name))
          .kv("value", m.value)
          .kv("unit", std::string_view(m.unit))
          .kv("higher_is_better", m.higher_is_better)
          .end_object();
    }
    w.end_array();
    w.end_object();
    return w.str();
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    bool higher_is_better;
  };
  std::string bench_;
  std::vector<std::pair<std::string, std::string>> context_;  // key -> raw JSON
  std::vector<Metric> metrics_;
};

/// "release" when compiled with NDEBUG, "debug" otherwise.  Benches stamp
/// this into their JSON context so benchdiff comparisons against the
/// checked-in baselines can spot apples-to-oranges runs.
inline const char* build_type() {
#ifdef NDEBUG
  return "release";
#else
  return "debug";
#endif
}

/// Loud stderr warning for benches running with assertions enabled: the
/// numbers are real but must not be written over the checked-in baselines.
inline void warn_if_debug_build() {
#ifndef NDEBUG
  std::fprintf(stderr,
               "[bench] WARNING: built without NDEBUG (assertions on) — "
               "timings are not comparable to the checked-in baselines\n");
#endif
}

inline double bench_scale() {
  if (const char* env = std::getenv("DRLHMD_BENCH_SCALE")) {
    const double s = std::atof(env);
    if (s > 0.0 && s <= 1.0) return s;
  }
  return 1.0;
}

inline bool telemetry_requested() {
  const char* env = std::getenv("DRLHMD_TELEMETRY");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/// One JSON document combining the registry snapshot and the phase trace.
inline std::string telemetry_json() {
  obs::JsonWriter w;
  w.begin_object();
  w.key("metrics").raw(obs::Telemetry::metrics().snapshot().to_json());
  w.key("trace").raw(obs::Telemetry::tracer().to_json());
  w.end_object();
  return w.str();
}

/// If DRLHMD_TELEMETRY is set, dump the snapshot to stderr (prefixed so it
/// is easy to grep out of the bench's table output).
inline void maybe_dump_telemetry() {
  if (!obs::Telemetry::enabled()) return;
  std::fprintf(stderr, "[telemetry] %s\n", telemetry_json().c_str());
}

/// Full-scale configuration used by every reproduction binary.
inline core::FrameworkConfig bench_config(std::uint64_t seed = 2024) {
  const double scale = bench_scale();
  core::FrameworkConfig cfg;
  cfg.corpus.benign_apps = static_cast<std::size_t>(300 * scale);
  cfg.corpus.malware_apps = static_cast<std::size_t>(300 * scale);
  cfg.corpus.windows_per_app = 5;
  cfg.seed = seed;
  return cfg;
}

/// Run the full pipeline with progress lines on stderr.  When
/// DRLHMD_TELEMETRY is set, telemetry is enabled for the whole process and
/// the registry/trace snapshot is printed once the pipeline completes.
inline core::Framework build_pipeline(const core::FrameworkConfig& cfg) {
  if (telemetry_requested()) obs::Telemetry::set_enabled(true);
  core::Framework fw(cfg);
  util::Timer timer;
  auto step = [&](const char* what, auto&& fn) {
    std::fprintf(stderr, "[pipeline] %-22s ", what);
    std::fflush(stderr);
    util::Timer t;
    fn();
    std::fprintf(stderr, "%6.2fs\n", t.elapsed_seconds());
  };
  step("acquire data", [&] { fw.acquire_data(); });
  step("engineer features", [&] { fw.engineer_features(); });
  step("train baselines", [&] { fw.train_baselines(); });
  step("generate attacks", [&] { fw.generate_attacks(); });
  step("train DRL predictor", [&] { fw.train_predictor(); });
  step("adversarial training", [&] { fw.train_defenses(); });
  step("train UCB controllers", [&] { fw.train_controllers(); });
  step("protect models", [&] { fw.protect_models(); });
  std::fprintf(stderr, "[pipeline] total %.2fs\n", timer.elapsed_seconds());
  maybe_dump_telemetry();
  return fw;
}

}  // namespace drlhmd::bench
