// hmdload — open-loop load generator for the detection-as-a-service tier.
//
// Trains a reduced pipeline, wraps the DetectionRuntime in a
// DetectionServer, then sweeps offered load: at each point thousands of
// simulated hosts emit test-set rows with exponential inter-arrival times
// (serve/loadgen.hpp), and the report carries sustained samples/sec,
// coordinated-omission-safe p99/p999 end-to-end latency, and the drop rate
// under backpressure.  Emits BENCH_serving.json (drlhmd-bench/1 schema) as
// the last stdout line for the benchdiff_gate_serving ctest.
//
// Flags (on top of the shared --threads N override):
//   --loads R1,R2,...   offered samples/sec sweep points
//   --duration S        producer run time per point
//   --hosts N           simulated hosts
//   --max-batch N       adaptive batcher row cap
//   --max-wait-us U     adaptive batcher age cap
//   --smoke             one low-load point at reduced scale (CI smoke: the
//                       run must sustain the load with zero drops)
// Any other argument exits 2.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"
#include "util/table.hpp"

using namespace drlhmd;

namespace {

struct Options {
  std::vector<double> loads = {5000.0, 20000.0, 80000.0};
  double duration_s = 1.0;
  std::size_t hosts = 2048;
  std::size_t max_batch = 256;
  double max_wait_us = 500.0;
  bool smoke = false;
};

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* flag) -> const char* {
      const std::string prefix = std::string(flag) + "=";
      if (arg.rfind(prefix, 0) == 0) return arg.c_str() + prefix.size();
      if (arg == flag) return i + 1 < argc ? argv[++i] : "";
      return nullptr;
    };
    using bench::parse_number_or_exit;
    const char* v = nullptr;
    if ((v = value("--loads")) != nullptr) {
      opt.loads.clear();
      const std::string list = v;
      for (std::size_t at = 0;;) {
        const std::size_t comma = std::min(list.find(',', at), list.size());
        opt.loads.push_back(
            parse_number_or_exit<double>("--loads", list.substr(at, comma - at)));
        if (comma == list.size()) break;
        at = comma + 1;
      }
    } else if ((v = value("--duration")) != nullptr) {
      opt.duration_s = parse_number_or_exit<double>("--duration", v);
    } else if ((v = value("--hosts")) != nullptr) {
      opt.hosts = parse_number_or_exit<std::size_t>("--hosts", v);
    } else if ((v = value("--max-batch")) != nullptr) {
      opt.max_batch = parse_number_or_exit<std::size_t>("--max-batch", v);
    } else if ((v = value("--max-wait-us")) != nullptr) {
      opt.max_wait_us = parse_number_or_exit<double>("--max-wait-us", v);
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (value("--threads") == nullptr) {  // read by apply_bench_cli
      std::fprintf(stderr, "hmdload: unknown argument '%s'\n", arg.c_str());
      std::exit(2);
    }
  }
  if (opt.smoke) {
    // One gentle point the server must absorb without shedding a sample.
    opt.loads = {2000.0};
    opt.duration_s = 0.5;
    opt.hosts = 64;
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  bench::apply_bench_cli(argc, argv);
  const Options opt = parse_options(argc, argv);

  // Reduced pipeline: the serving bench measures the data plane, not
  // training.  Retraining and integrity sweeps are disabled so every point
  // sees the same frozen models (stable latency, no mid-sweep stalls).
  core::FrameworkConfig cfg;
  cfg.corpus.benign_apps = opt.smoke ? 40 : 80;
  cfg.corpus.malware_apps = opt.smoke ? 40 : 80;
  cfg.corpus.windows_per_app = 4;
  cfg.seed = 2024;
  std::fprintf(stderr, "[hmdload] training pipeline (%zu+%zu apps)...\n",
               cfg.corpus.benign_apps, cfg.corpus.malware_apps);
  core::Framework fw(cfg);
  fw.run_all();

  core::RuntimeConfig rcfg;
  rcfg.retrain_threshold = 0;
  rcfg.integrity_check_period = 0;
  core::DetectionRuntime runtime(fw, rcfg);

  const ml::Dataset& rows = fw.test_set();
  serve::ServeConfig scfg;
  scfg.hosts = opt.hosts;
  scfg.shards = 1;
  scfg.ring_capacity = 8192;
  scfg.completion_capacity = 256;
  scfg.max_batch = opt.max_batch;
  scfg.max_wait_us = opt.max_wait_us;
  serve::DetectionServer server(runtime, rows.num_features(), scfg);

  bench::BenchWriter json("serving");
  json.context("hosts", static_cast<std::uint64_t>(scfg.hosts));
  json.context("max_batch", static_cast<std::uint64_t>(scfg.max_batch));
  json.context("max_wait_us", static_cast<std::uint64_t>(scfg.max_wait_us));
  json.context("row_pool", static_cast<std::uint64_t>(rows.size()));
  json.context("build_type", std::string(bench::build_type()));
  json.context("threads",
               static_cast<std::uint64_t>(util::parallel_thread_count()));
  bench::warn_if_debug_build();

  util::Table table({"offered/s", "sustained/s", "p50 us", "p99 us",
                     "p999 us", "drop rate", "delivered"});
  bool all_drained = true;
  std::uint64_t total_dropped = 0;
  for (std::size_t i = 0; i < opt.loads.size(); ++i) {
    serve::LoadGenConfig lcfg;
    lcfg.offered_per_sec = opt.loads[i];
    lcfg.duration_s = opt.duration_s;
    lcfg.seed = 42 + i;
    const serve::LoadPointReport r =
        serve::run_open_loop(server, rows.X.view(), lcfg);
    all_drained = all_drained && r.drained;
    total_dropped += r.dropped;

    table.add_row({util::Table::fmt(r.offered_per_sec, 0),
                   util::Table::fmt(r.sustained_per_sec, 0),
                   util::Table::fmt(r.e2e_us.p50, 1),
                   util::Table::fmt(r.e2e_us.p99, 1),
                   util::Table::fmt(r.e2e_us.p999, 1),
                   util::Table::fmt(r.drop_rate, 4),
                   util::Table::fmt(static_cast<double>(r.delivered), 0)});
    std::fprintf(stderr,
                 "[hmdload] offered=%.0f/s sustained=%.0f/s p99=%.1fus "
                 "p999=%.1fus drops=%llu/%llu%s\n",
                 r.offered_per_sec, r.sustained_per_sec, r.e2e_us.p99,
                 r.e2e_us.p999,
                 static_cast<unsigned long long>(r.dropped),
                 static_cast<unsigned long long>(r.attempted),
                 r.drained ? "" : " [DRAIN TIMEOUT]");

    const std::string prefix = "p" + std::to_string(i);
    json.metric(prefix + ".offered_per_sec", r.offered_per_sec, "1/s", true);
    json.metric(prefix + ".sustained_per_sec", r.sustained_per_sec, "1/s",
                true);
    json.metric(prefix + ".p50_us", r.e2e_us.p50, "us", false);
    json.metric(prefix + ".p99_us", r.e2e_us.p99, "us", false);
    json.metric(prefix + ".p999_us", r.e2e_us.p999, "us", false);
    json.metric(prefix + ".drop_rate", r.drop_rate, "ratio", false);
    json.metric(prefix + ".delivered_ratio", r.delivered_ratio, "ratio",
                true);
  }

  const serve::ServeStats stats = server.stats();
  std::fprintf(stderr,
               "[hmdload] flushes full=%llu wait=%llu drain=%llu batches=%llu\n",
               static_cast<unsigned long long>(stats.flush_full),
               static_cast<unsigned long long>(stats.flush_wait),
               static_cast<unsigned long long>(stats.flush_drain),
               static_cast<unsigned long long>(stats.batches));

  std::printf("%s\n%s\n", table.to_string().c_str(), json.str().c_str());
  if (!all_drained) {
    std::fprintf(stderr, "[hmdload] FAIL: drain timeout\n");
    return 1;
  }
  if (opt.smoke && total_dropped != 0) {
    std::fprintf(stderr, "[hmdload] FAIL: smoke run dropped %llu samples\n",
                 static_cast<unsigned long long>(total_dropped));
    return 1;
  }
  return 0;
}
