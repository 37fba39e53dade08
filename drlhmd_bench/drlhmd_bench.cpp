// drlhmd_bench — the repository's end-to-end benchmark.
//
//   drlhmd_bench --workload W --seed S [--seconds N] [--trace FILE]
//                [--smoke] [--spec BENCHMARK.json] [--tmp-root DIR]
//
// Every run follows one deployment's life, three times over: set up the
// served system (a fleet-mode corpus build and the eight training phases,
// then runtime, server and a verdict oracle), then serve it one episode of
// open-loop traffic -- a warm-up and a third of --seconds -- checking every
// verdict.  Each end-to-end metric is the median over the three set-ups or
// episodes, so one slow retrain or one descheduled second does not decide
// it.  The workloads differ in corpus scale, traffic pool, offered rate and
// runtime configuration (see kWorkloads and README.md).
//
// Each layer is timed from outside, around calls to its public functions:
// Framework phase methods (training), DetectionServer::try_enqueue and its
// metrics() (serve), DetectionRuntime::process_batch / validate_integrity
// (core), AdversarialPredictor::is_adversarial_batch (rl), and
// ConstraintController::predict_batch / Classifier::predict_proba_batch_fast
// (ml).
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics when untraced, the per-layer metrics
// with --trace.  A traced run traces only its last episode, so the untraced
// ones give the cost of tracing; then it replays the scoring layers on
// fixed tiles, writes the Chrome trace to FILE and the per-layer metrics
// with their context next to it.
//
// Exit status: 0 when every check passed, 1 when a check failed or the run
// broke, 2 on bad command-line input or an unreadable --spec.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/framework.hpp"
#include "core/runtime.hpp"
#include "ml/sharded_dataset.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_export.hpp"
#include "open_loop.hpp"
#include "serve/server.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

using namespace drlhmd;

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class RuntimeMode {
  kFrozen,      // retraining and integrity checks off
  kProduction,  // RuntimeConfig defaults: retrain 250, integrity every 1000
  kAdaptive,    // integrity every 1000, one retrain per episode
};

struct Workload {
  const char* name;
  std::size_t apps_per_class;  // fleet corpus: benign = malware apps
  std::size_t windows_per_app;
  bool attacked_pool;  // serve attacked_test_mix() instead of test_set()
  double rate_per_s;
  RuntimeMode runtime;
};

// Why each one exists is in README.md; in short: serve_steady is dominated
// by batching wait, serve_peak by scoring and integrity checks on the drain
// thread, serve_adaptive by retrain stalls, train_fleet by corpus build and
// training at a larger scale.
constexpr Workload kWorkloads[] = {
    {"serve_steady", 60, 4, false, 20'000.0, RuntimeMode::kFrozen},
    {"serve_peak", 60, 4, false, 100'000.0, RuntimeMode::kProduction},
    {"serve_adaptive", 60, 4, true, 400.0, RuntimeMode::kAdaptive},
    {"train_fleet", 100, 5, false, 5'000.0, RuntimeMode::kFrozen},
};

// Fixed so every run serves identical models; --seed drives only traffic.
constexpr std::uint64_t kPipelineSeed = 2024;
constexpr std::size_t kFleetShards = 8;
constexpr std::size_t kHosts = 2048;
constexpr std::size_t kSetupThreads = 4;
// Serving: producer + collector + drain worker + one extra pool worker.
constexpr std::size_t kServeThreads = 2;
constexpr int kEpisodes = 3;  // set-ups, each serving one episode
constexpr double kWarmupS = 0.5;
constexpr double kMaxLagUs = 1000.0;
// The only policy whose routing ignores measured latency (it ranks models
// by serialized size), so the served detector is the same in every run.
constexpr rl::ConstraintPolicy kServedPolicy = rl::ConstraintPolicy::kSmallMemory;
constexpr const char* kExpectedDetector = "LR";
constexpr rl::ConstraintPolicy kPolicies[] = {rl::ConstraintPolicy::kFastInference,
                                              rl::ConstraintPolicy::kSmallMemory,
                                              rl::ConstraintPolicy::kBestDetection};

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_file;  // empty: untraced
  bool smoke = false;
  std::string spec_file;
  fs::path tmp_root = fs::temp_directory_path();
};

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr,
               "drlhmd_bench: %s\n"
               "usage: drlhmd_bench --workload W --seed S [--seconds N] "
               "[--trace FILE] [--smoke] [--spec BENCHMARK.json] "
               "[--tmp-root DIR]\n"
               "workloads: serve_steady serve_peak serve_adaptive "
               "train_fleet\n",
               message.c_str());
  std::exit(2);
}

template <typename T>
T parse_number(const std::string& flag, const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || text.empty())
    usage_error("bad value for " + flag + ": '" + text + "'");
  return value;
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads)
        if (value == w.name) opt.workload = &w;
      if (opt.workload == nullptr) usage_error("unknown workload '" + value + "'");
    } else if (flag == "--seed") {
      opt.seed = parse_number<std::uint64_t>(flag, value);
    } else if (flag == "--seconds") {
      opt.seconds = parse_number<double>(flag, value);
      if (!(opt.seconds > 0.0 && opt.seconds <= 600.0))
        usage_error("--seconds must be in (0, 600]");
    } else if (flag == "--trace") {
      opt.trace_file = value;
    } else if (flag == "--spec") {
      opt.spec_file = value;
    } else if (flag == "--tmp-root") {
      opt.tmp_root = value;
    } else {
      usage_error("unknown flag '" + flag + "'");
    }
  }
  if (opt.workload == nullptr) usage_error("--workload is required");
  return opt;
}

// ---------------------------------------------------------------------------
// Metric spec (BENCHMARK.json) and results
// ---------------------------------------------------------------------------

struct MetricSpec {
  std::string name;
  std::string unit;
};

struct Spec {
  std::vector<MetricSpec> end_to_end;
  std::vector<MetricSpec> per_layer;
};

std::vector<MetricSpec> spec_list(const obs::JsonValue& doc, const char* key) {
  const obs::JsonValue* list = doc.find(key);
  if (list == nullptr || !list->is_array())
    usage_error(std::string("--spec: missing array '") + key + "'");
  std::vector<MetricSpec> out;
  for (const obs::JsonValue& m : list->array) {
    const obs::JsonValue* name = m.find("name");
    const obs::JsonValue* unit = m.find("unit");
    if (name == nullptr || !name->is_string() || unit == nullptr ||
        !unit->is_string())
      usage_error(std::string("--spec: bad entry in '") + key + "'");
    out.push_back({name->string, unit->string});
  }
  return out;
}

Spec load_spec(const std::string& path) {
  std::ifstream in(path);
  if (!in) usage_error("cannot read --spec " + path);
  std::stringstream text;
  text << in.rdbuf();
  const std::optional<obs::JsonValue> doc = obs::json_parse(text.str());
  if (!doc || !doc->is_object()) usage_error("--spec " + path + " is not JSON");
  return {spec_list(*doc, "end_to_end"), spec_list(*doc, "per_layer")};
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Failed checks, each reported on stderr as it happens.
struct Checks {
  std::uint64_t failed = 0;
  void expect(bool ok, const std::string& what) {
    if (ok) return;
    ++failed;
    std::fprintf(stderr, "[drlhmd_bench] CHECK FAILED: %s\n", what.c_str());
  }
};

/// The printed metric set must be exactly the spec's list, unit for unit.
void check_against_spec(const std::vector<Metric>& metrics,
                        const std::vector<MetricSpec>& spec, const char* list,
                        Checks& checks) {
  for (const MetricSpec& s : spec) {
    const auto it = std::find_if(metrics.begin(), metrics.end(),
                                 [&](const Metric& m) { return m.name == s.name; });
    checks.expect(it != metrics.end(),
                  std::string(list) + " metric '" + s.name + "' not produced");
    if (it != metrics.end())
      checks.expect(it->unit == s.unit, std::string(list) + " metric '" + s.name +
                                            "' has unit '" + it->unit +
                                            "', spec says '" + s.unit + "'");
  }
  for (const Metric& m : metrics) {
    const bool listed = std::any_of(spec.begin(), spec.end(), [&](const MetricSpec& s) {
      return s.name == m.name;
    });
    checks.expect(listed, std::string(list) + " metric '" + m.name +
                              "' is missing from the spec");
  }
}

double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string served_detector(const core::Framework& fw, rl::ConstraintPolicy policy) {
  const rl::ConstraintController& c = fw.controller(policy);
  return c.model(c.selected_model()).name();
}

// ---------------------------------------------------------------------------
// Set-up: one served system
// ---------------------------------------------------------------------------

/// Per-process temporary directory, removed on every exit path.
class TempDir {
 public:
  explicit TempDir(fs::path path) : path_(std::move(path)) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { remove(); }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  void remove() noexcept {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

struct PhaseStep {
  const char* metric;  // per-layer metric (seconds); span name drops "_s"
  void (*run)(core::Framework&);
};

const PhaseStep kPhases[] = {
    {"sim.acquire_s", [](core::Framework& f) { f.acquire_data(); }},
    {"ml.engineer_s", [](core::Framework& f) { f.engineer_features(); }},
    {"ml.baselines_s", [](core::Framework& f) { f.train_baselines(); }},
    {"adversarial.attacks_s", [](core::Framework& f) { f.generate_attacks(); }},
    {"rl.predictor_train_s", [](core::Framework& f) { f.train_predictor(); }},
    {"ml.defenses_s", [](core::Framework& f) { f.train_defenses(); }},
    {"rl.controllers_s", [](core::Framework& f) { f.train_controllers(); }},
    {"integrity.protect_s", [](core::Framework& f) { f.protect_models(); }},
};
constexpr std::size_t kPhaseCount = std::size(kPhases);

struct System {
  // Declaration order is destruction order in reverse: the server goes
  // first, then the runtimes, then the framework they point into.
  std::unique_ptr<core::Framework> fw;
  std::unique_ptr<core::DetectionRuntime> reference;  // frozen: oracle + replays
  std::unique_ptr<core::DetectionRuntime> served;
  std::unique_ptr<serve::DetectionServer> server;
  const ml::Dataset* pool = nullptr;
  std::vector<core::TrafficVerdict> expected;  // per pool row
  std::size_t retrain_threshold = 0;
  double phase_s[kPhaseCount] = {};
  std::uint64_t parallel_regions = 0;
  double setup_s = 0.0;
};

/// The benchmark's own spans.  They stay off the program's global tracer,
/// whose mutex and growing event list the traced program contends on; the
/// two event lists are merged only when the trace is written.
obs::Tracer& bench_tracer() {
  static obs::Tracer tracer;
  return tracer;
}

/// Set once, before any span opens, when the run has --trace.
bool g_tracing = false;

/// Span on the benchmark tracer when tracing, an inert one otherwise.
obs::Span bench_span(std::string name) {
  return g_tracing ? bench_tracer().span(std::move(name), "bench") : obs::Span{};
}

std::unique_ptr<System> build_system(const Workload& w, const Options& opt,
                                     double warmup_s, int index, Checks& checks) {
  const util::Timer setup_timer;
  const obs::Span span = bench_span("setup " + std::to_string(index));
  auto sys = std::make_unique<System>();

  const std::size_t apps = opt.smoke ? 24 : w.apps_per_class;
  const std::size_t windows = opt.smoke ? 2 : w.windows_per_app;
  TempDir dir(opt.tmp_root / ("drlhmd_bench-" + std::to_string(::getpid()) +
                              "-" + std::to_string(index)));
  core::FrameworkConfig cfg;
  cfg.corpus.benign_apps = apps;
  cfg.corpus.malware_apps = apps;
  cfg.corpus.windows_per_app = windows;
  cfg.seed = kPipelineSeed;
  cfg.fleet.out_dir = dir.path().string();
  cfg.fleet.shards = kFleetShards;
  sys->fw = std::make_unique<core::Framework>(cfg);
  core::Framework& fw = *sys->fw;

  const std::uint64_t regions0 = util::parallel_stats().regions;
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    const std::string name(kPhases[p].metric);
    const obs::Span phase = bench_span(name.substr(0, name.size() - 2));
    const util::Timer t;
    kPhases[p].run(fw);
    sys->phase_s[p] = t.elapsed_seconds();
  }
  sys->parallel_regions = util::parallel_stats().regions - regions0;

  // The shard set, verified from outside: open() checks every CRC.
  const ml::ShardedDataset shards = ml::ShardedDataset::open(dir.path().string());
  const std::size_t want_rows = 2 * apps * windows;
  checks.expect(shards.num_shards() == kFleetShards, "shard count");
  checks.expect(shards.rows() == want_rows,
                "corpus rows " + std::to_string(shards.rows()) + " != " +
                    std::to_string(want_rows));
  for (const auto& model : fw.defended_models())
    checks.expect(fw.vault().verify(model->name(), model->serialize()) ==
                      integrity::VerificationStatus::kIntact,
                  "vault verify " + model->name());
  dir.remove();

  // Oracle: the frozen runtime's verdict for every pool row.
  sys->pool = w.attacked_pool ? &fw.attacked_test_mix() : &fw.test_set();
  core::RuntimeConfig frozen;
  frozen.retrain_threshold = 0;
  frozen.integrity_check_period = 0;
  frozen.policy = kServedPolicy;
  sys->reference = std::make_unique<core::DetectionRuntime>(fw, frozen);
  sys->expected = sys->reference->process_batch(sys->pool->X.view());
  const std::string routed = served_detector(fw, kServedPolicy);
  checks.expect(routed == kExpectedDetector,
                "Agent 2 routes to " + routed + ", expected " + kExpectedDetector);

  core::RuntimeConfig rcfg;  // production defaults
  rcfg.policy = kServedPolicy;
  if (w.runtime == RuntimeMode::kFrozen) {
    rcfg.retrain_threshold = 0;
    rcfg.integrity_check_period = 0;
  } else if (w.runtime == RuntimeMode::kAdaptive) {
    // Expected quarantine volume over the episode is 1.5 thresholds, so
    // every seed sees exactly one retrain (the margin is many standard
    // deviations of the Poisson arrival count).
    const double flagged_share =
        static_cast<double>(std::count(sys->expected.begin(), sys->expected.end(),
                                       core::TrafficVerdict::kAdversarialMalware)) /
        static_cast<double>(sys->expected.size());
    checks.expect(flagged_share > 0.0, "adaptive pool has no adversarial rows");
    const double expected_flagged =
        w.rate_per_s * (warmup_s + opt.seconds) * flagged_share;
    rcfg.retrain_threshold =
        std::max<std::size_t>(1, static_cast<std::size_t>(expected_flagged / 1.5));
  }
  sys->retrain_threshold = rcfg.retrain_threshold;
  sys->served = std::make_unique<core::DetectionRuntime>(fw, rcfg);

  serve::ServeConfig scfg;
  scfg.hosts = kHosts;
  scfg.shards = 1;
  scfg.ring_capacity = 8192;
  scfg.completion_capacity = 256;
  scfg.max_batch = 256;
  scfg.max_wait_us = 500.0;
  sys->server = std::make_unique<serve::DetectionServer>(
      *sys->served, sys->pool->num_features(), scfg);
  sys->setup_s = setup_timer.elapsed_seconds();
  return sys;
}

// ---------------------------------------------------------------------------
// Serving episode
// ---------------------------------------------------------------------------

struct Episode {
  bool traced = false;
  bench::OpenLoopReport load;
  serve::ServeStats serve;
  core::RuntimeStats runtime;
  obs::TailHistogram::Snapshot score_us;
  obs::TailHistogram::Snapshot batch_rows;
  obs::TailHistogram::Snapshot process_batch_us;  // recorded only when traced
};

obs::TailHistogram::Snapshot tail_of(const obs::MetricsRegistry& reg,
                                     const std::string& name) {
  const obs::MetricsSnapshot snap = reg.snapshot();
  const obs::TailSample* t = snap.find_tail(name);
  return t != nullptr ? t->data : obs::TailHistogram::Snapshot{};
}

Episode serve_episode(System& sys, const Workload& w, const Options& opt,
                    double warmup_s, bool traced, Checks& checks) {
  const obs::Span span = bench_span(traced ? "episode traced" : "episode untraced");
  bench::Traffic traffic;
  traffic.rate_per_s = w.rate_per_s;
  traffic.warmup_s = warmup_s;
  traffic.measure_s = opt.seconds;
  traffic.seed = opt.seed;
  bench::Oracle oracle;
  oracle.expected = sys.expected;
  oracle.flag_only = w.attacked_pool;

  if (traced) obs::Telemetry::set_enabled(true);
  Episode out;
  out.traced = traced;
  out.load = bench::run_open_loop(*sys.server, sys.pool->X.view(), oracle, traffic,
                                  traced ? &bench_tracer() : nullptr);
  obs::Telemetry::set_enabled(false);
  out.serve = sys.server->stats();
  out.runtime = sys.served->stats();
  out.score_us = tail_of(sys.server->metrics(), "drlhmd.serve.score_us");
  out.batch_rows = tail_of(sys.server->metrics(), "drlhmd.serve.batch_rows");
  out.process_batch_us = tail_of(sys.served->metrics(), "drlhmd.runtime.batch_tail_us");

  const bench::OpenLoopReport& r = out.load;
  const std::string tag = traced ? " (traced)" : "";
  checks.expect(r.drained, "drain timed out" + tag);
  checks.expect(r.seq_errors == 0, "sequence numbers out of order" + tag);
  checks.expect(r.session_errors == 0, "host seq gaps differ from drops" + tag);
  checks.expect(r.measured_attempted > 0, "no measured arrivals" + tag);
  const double lag_p99 = r.lag_us.quantile(0.99);
  std::fprintf(stderr,
               "[drlhmd_bench] episode%s: attempted %llu, e2e p50 %.1f us, p99 "
               "%.1f us, lag p99 %.1f us, retrains %llu\n",
               tag.c_str(), static_cast<unsigned long long>(r.attempted),
               r.e2e_us.quantile(0.5), r.e2e_us.quantile(0.99), lag_p99,
               static_cast<unsigned long long>(out.runtime.retrains));
  // Latency is charged from the scheduled tick, so a late producer cannot
  // hide a stall; its lateness only shifts where samples wait.  A late
  // episode is therefore reported, not failed: the VM deschedules the
  // producer for milliseconds now and then, and the median episode absorbs it.
  if (lag_p99 >= kMaxLagUs)
    std::fprintf(stderr, "[drlhmd_bench] note: load generator lag p99 %.1f us%s\n",
                 lag_p99, tag.c_str());
  const std::uint64_t want_retrains =
      sys.retrain_threshold == 0 ? 0 : out.runtime.adversarial / sys.retrain_threshold;
  checks.expect(out.runtime.retrains == want_retrains,
                "retrains " + std::to_string(out.runtime.retrains) + " != " +
                    std::to_string(want_retrains) + tag);
  checks.expect(out.runtime.integrity_alarms == 0, "integrity alarms" + tag);
  const std::string routed = served_detector(*sys.fw, kServedPolicy);
  checks.expect(routed == kExpectedDetector,
                "Agent 2 routes to " + routed + " after serving" + tag);
  return out;
}

// ---------------------------------------------------------------------------
// Replays (traced runs only, after the episodes)
// ---------------------------------------------------------------------------

/// Median wall time of one call, in nanoseconds.
template <typename Fn>
double median_call_ns(Fn&& fn, double min_seconds) {
  for (int i = 0; i < 3; ++i) fn();
  std::vector<double> ns;
  const util::Timer total;
  while (ns.size() < 20 ||
         (total.elapsed_seconds() < min_seconds && ns.size() < 200'000)) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    ns.push_back(std::chrono::duration<double, std::nano>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
  }
  return median(std::move(ns));
}

/// A `rows`-row tile cycling through the pool.
ml::FeatureMatrix make_tile(const ml::Dataset& pool, std::size_t rows) {
  ml::FeatureMatrix tile(rows, pool.num_features());
  std::vector<double> row(pool.num_features());
  for (std::size_t r = 0; r < rows; ++r) {
    pool.gather_row(r % pool.size(), row);
    for (std::size_t c = 0; c < row.size(); ++c) tile.at(r, c) = row[c];
  }
  return tile;
}

void replay_layers(System& sys, std::size_t tile_rows, double min_seconds,
                   std::vector<Metric>& out) {
  const core::Framework& fw = *sys.fw;
  const auto per_row = [](double ns, std::size_t rows) {
    return ns / static_cast<double>(rows);
  };
  {
    const obs::Span span = bench_span("replay scoring layers");
    const ml::FeatureMatrix tile = make_tile(*sys.pool, tile_rows);
    std::vector<std::uint8_t> flags(tile_rows);
    std::vector<int> predictions(tile_rows);
    std::vector<core::TrafficVerdict> verdicts(tile_rows);
    out.push_back({"core.process_batch_ns_per_row",
                   per_row(median_call_ns([&] {
                             sys.reference->process_batch(tile.view(), verdicts);
                           }, min_seconds), tile_rows),
                   "ns"});
    out.push_back({"rl.predictor_ns_per_row",
                   per_row(median_call_ns([&] {
                             fw.predictor().is_adversarial_batch(tile.view(), flags);
                           }, min_seconds), tile_rows),
                   "ns"});
    out.push_back({"ml.detector_ns_per_row",
                   per_row(median_call_ns([&] {
                             fw.controller(kServedPolicy)
                                 .predict_batch(tile.view(), predictions);
                           }, min_seconds), tile_rows),
                   "ns"});
  }
  {
    const obs::Span span = bench_span("replay defended models");
    constexpr std::size_t kModelTile = 256;
    const ml::FeatureMatrix tile = make_tile(*sys.pool, kModelTile);
    std::vector<double> proba(kModelTile);
    for (const auto& model : fw.defended_models())
      out.push_back({"ml." + model->name() + ".ns_per_row",
                     per_row(median_call_ns([&] {
                               model->predict_proba_batch_fast(tile.view(), proba);
                             }, min_seconds), kModelTile),
                     "ns"});
  }
  {
    const obs::Span span = bench_span("replay validate_integrity");
    std::vector<double> us;
    for (int i = 0; i < 20; ++i) {
      const util::Timer t;
      sys.reference->validate_integrity();
      us.push_back(t.elapsed_us());
    }
    out.push_back({"integrity.validate_us_p50", median(std::move(us)), "us"});
  }
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string context_json(const Options& opt, const core::Framework& fw) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("workload", std::string_view(opt.workload->name));
  w.kv("seed", opt.seed);
#ifdef NDEBUG
  w.kv("build_type", std::string_view("release"));
#else
  w.kv("build_type", std::string_view("debug"));
#endif
  w.kv("setup_threads", static_cast<std::uint64_t>(kSetupThreads));
  w.kv("threads", static_cast<std::uint64_t>(kServeThreads));
  w.kv("host_cores", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.key("served_detector").begin_object();
  for (const rl::ConstraintPolicy p : kPolicies)
    w.kv(rl::policy_name(p), std::string_view(served_detector(fw, p)));
  w.end_object();
  w.end_object();
  return w.str();
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  obs::JsonWriter w;
  w.begin_object();
  for (const Metric& m : metrics)
    w.key(m.name).begin_object().kv("value", m.value).kv("unit",
                                                         std::string_view(m.unit))
        .end_object();
  w.end_object();
  return w.str();
}

int run(const Options& opt) {
  const Workload& w = *opt.workload;
  const bool traced = !opt.trace_file.empty();
  g_tracing = traced;
  const double warmup_s = opt.smoke ? 0.2 : kWarmupS;
  const int episode_count = opt.smoke ? 2 : kEpisodes;
  Options episode_opt = opt;  // --seconds is split across the episodes
  episode_opt.seconds = opt.smoke ? 0.3 : opt.seconds / episode_count;
  const std::optional<Spec> spec =
      opt.spec_file.empty() ? std::nullopt : std::optional<Spec>(load_spec(opt.spec_file));
  Checks checks;
  std::vector<Metric> layers;

  std::vector<std::unique_ptr<System>> systems;
  std::vector<Episode> episodes;
  {
    const obs::Span run_span = bench_span(std::string("drlhmd_bench ") + w.name);
    util::set_parallel_threads(kSetupThreads);
    for (int k = 0; k < episode_count; ++k) {
      systems.push_back(build_system(w, episode_opt, warmup_s, k, checks));
      std::string routes;
      for (const rl::ConstraintPolicy p : kPolicies) {
        if (!routes.empty()) routes += '/';
        routes += served_detector(*systems.back()->fw, p);
      }
      std::fprintf(stderr, "[drlhmd_bench] setup %d: %.3f s, Agents 1/2/3 route to %s\n",
                   k, systems.back()->setup_s, routes.c_str());
    }
    util::set_parallel_threads(kServeThreads);

    // Each system serves one episode of the same traffic.  With --trace only
    // the last is traced, so the others are its untraced baseline.
    for (int k = 0; k < episode_count; ++k)
      episodes.push_back(serve_episode(*systems[k], w, episode_opt, warmup_s,
                                       traced && k + 1 == episode_count, checks));

    if (traced) {
      const Episode& tw = episodes.back();
      const std::size_t tile_rows = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::lround(tw.batch_rows.p50)));
      replay_layers(*systems.back(), tile_rows, opt.smoke ? 0.005 : 0.05, layers);
    }
  }

  // ---- end-to-end metrics (medians over set-ups and untraced episodes) -----
  const auto over_setups = [&](auto field) {
    std::vector<double> v;
    for (const auto& s : systems) v.push_back(field(*s));
    return median(std::move(v));
  };
  const auto over_untraced = [&](auto field) {
    std::vector<double> v;
    for (const Episode& e : episodes)
      if (!e.traced) v.push_back(field(e.load));
    return median(std::move(v));
  };
  const double e2e_p50 = over_untraced(
      [](const bench::OpenLoopReport& r) { return r.e2e_us.quantile(0.50); });
  std::vector<Metric> e2e = {
      {"setup_s", over_setups([](const System& s) { return s.setup_s; }), "s"},
      {"e2e_p50_us", e2e_p50, "us"},
      {"e2e_p99_us",
       over_untraced([](const bench::OpenLoopReport& r) { return r.e2e_us.quantile(0.99); }),
       "us"},
      {"slo_met_ratio", over_untraced([](const bench::OpenLoopReport& r) {
         return static_cast<double>(r.slo_met) /
                static_cast<double>(std::max<std::uint64_t>(1, r.measured_attempted));
       }),
       "ratio"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };

  // ---- per-layer metrics (from the traced episode, setups and replays) -----
  if (traced) {
    const Episode& tw = episodes.back();
    const bench::OpenLoopReport& r = tw.load;
    std::vector<Metric> head = {
        {"loadgen.lag_us_p99", r.lag_us.quantile(0.99), "us"},
        {"serve.enqueue_ns_p50", r.enqueue_us.quantile(0.50) * 1e3, "ns"},
        {"serve.enqueue_ns_p99", r.enqueue_us.quantile(0.99) * 1e3, "ns"},
        {"serve.batches", static_cast<double>(tw.serve.batches), "count"},
        {"serve.batch_rows_p50", tw.batch_rows.p50, "rows"},
        {"serve.flush_full_ratio",
         static_cast<double>(tw.serve.flush_full) /
             static_cast<double>(std::max<std::uint64_t>(1, tw.serve.batches)),
         "ratio"},
        {"serve.queue_wait_us_p50", r.e2e_us.quantile(0.50) - tw.score_us.p50, "us"},
        {"serve.score_us_p50", tw.score_us.p50, "us"},
        {"serve.score_us_p99", tw.score_us.p99, "us"},
        {"serve.score_us_max", tw.score_us.max, "us"},
        {"core.process_batch_us_p50", tw.process_batch_us.p50, "us"},
        {"core.process_batch_us_p99", tw.process_batch_us.p99, "us"},
        {"integrity.checks", static_cast<double>(tw.runtime.integrity_checks), "count"},
        {"core.retrains", static_cast<double>(tw.runtime.retrains), "count"},
        {"core.quarantine_rows", static_cast<double>(tw.runtime.adversarial), "count"},
    };
    layers.insert(layers.begin(), head.begin(), head.end());
    for (std::size_t p = 0; p < kPhaseCount; ++p)
      layers.push_back({kPhases[p].metric,
                        over_setups([p](const System& s) { return s.phase_s[p]; }),
                        "s"});
    layers.push_back({"util.parallel_regions",
                      static_cast<double>(systems.back()->parallel_regions), "count"});
    layers.push_back({"obs.trace_overhead_ratio", r.e2e_us.quantile(0.50) / e2e_p50,
                      "ratio"});
  }

  std::vector<Metric>& printed = traced ? layers : e2e;
  for (const Metric& m : printed)
    checks.expect(std::isfinite(m.value), "metric " + m.name + " is not finite");
  if (spec) {
    check_against_spec(e2e, spec->end_to_end, "end_to_end", checks);
    if (traced) check_against_spec(layers, spec->per_layer, "per_layer", checks);
  }

  // A sample fails when it is dropped, never answered, or answered wrongly.
  std::uint64_t attempted = 0;
  std::uint64_t failed_samples = 0;
  for (const Episode& e : episodes) {
    const bench::OpenLoopReport& r = e.load;
    const std::uint64_t accepted = r.attempted - r.dropped;
    checks.expect(r.delivered <= accepted, "more verdicts than accepted samples");
    attempted += r.attempted;
    failed_samples += r.dropped + (accepted - std::min(accepted, r.delivered)) + r.wrong;
  }
  if (failed_samples != 0)
    std::fprintf(stderr, "[drlhmd_bench] CHECK FAILED: %llu samples dropped, lost or wrong\n",
                 static_cast<unsigned long long>(failed_samples));

  const std::string context = context_json(opt, *systems.back()->fw);
  std::fprintf(stderr, "[drlhmd_bench] context %s\n", context.c_str());
  for (const std::vector<Metric>* list : {&e2e, &layers})
    for (const Metric& m : *list)
      std::fprintf(stderr, "[drlhmd_bench] %-32s %16.6f %s\n", m.name.c_str(),
                   m.value, m.unit.c_str());

  if (traced) {
    // The program records one event per parallel-pool chunk (about a million
    // at 100k samples/s); the file keeps the region spans and drops those.
    std::vector<obs::TraceEvent> events = obs::Telemetry::tracer().events();
    obs::Telemetry::tracer().clear();
    std::erase_if(events, [](const obs::TraceEvent& e) {
      return e.category == "parallel" && e.name.find(".chunk") != std::string::npos;
    });
    const std::vector<obs::TraceEvent> own = bench_tracer().events();
    events.insert(events.end(), own.begin(), own.end());
    std::ofstream trace(opt.trace_file);
    trace << obs::to_chrome_trace(events) << '\n';
    checks.expect(trace.good(), "cannot write trace " + opt.trace_file);
    fs::path layers_file(opt.trace_file);
    layers_file.replace_extension(".layers.json");
    std::ofstream out(layers_file);
    out << "{\"context\":" << context << ",\"metrics\":" << metrics_json(layers)
        << "}\n";
    checks.expect(out.good(), "cannot write " + layers_file.string());
  }

  const std::uint64_t failed = failed_samples + checks.failed;
  obs::JsonWriter result;
  result.begin_object()
      .kv("correct", failed == 0)
      .kv("attempted", attempted)
      .kv("failed", failed)
      .key("metrics")
      .raw(metrics_json(printed))
      .end_object();
  std::printf("%s\n", result.str().c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[drlhmd_bench] error: %s\n", e.what());
    return 1;
  }
}
