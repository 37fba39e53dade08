// hmdctl — command-line front end for the DRL-HMD library.
//
//   hmdctl corpus   --benign 300 --malware 300 --windows 5 --out corpus.csv
//   hmdctl corpus build --out shards/ --shards 6 [--benign N --malware N]
//                   [--windows W --seed S --limit-shards K --profiles a,b]
//   hmdctl corpus info  <dir>
//   hmdctl corpus merge <dir> --out merged.csv
//   hmdctl features --in corpus.csv [--bins 16] [--top 10]
//   hmdctl simulate --family ransomware [--windows 4] [--seed 7]
//   hmdctl pipeline [--benign 150 --malware 150] [--seed 2024] [--mi]
//   hmdctl attack   [--benign 150 --malware 150] [--margin 0.9] [--steps 150]
//   hmdctl serve    [--rate 20000] [--duration 1] [--hosts 256]
//                   [--max-batch 256] [--max-wait-us 500]
//   hmdctl telemetry [--benign 150 --malware 150] [--format json|table]
//                    [--policy fast|small|best] [--log run.jsonl]
//                    [--log-level info] [--chrome-trace trace.json]
//                    [--prom [metrics.prom]]
//   hmdctl save     --dir ckpt [--benign 150 --malware 150] [--seed 2024]
//   hmdctl resume   --dir ckpt
//   hmdctl verify   --dir ckpt
//
// Every subcommand prints plain tables (telemetry defaults to JSON); exit
// code 0 on success, 1 on runtime/integrity failures, 2 on usage errors
// (a flag the command does not take, or a malformed value).
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/framework.hpp"
#include "core/runtime.hpp"
#include "ml/mutual_info.hpp"
#include "ml/sharded_dataset.hpp"
#include "sim/corpus_shard.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/prom.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_export.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"
#include "sim/dataset_builder.hpp"
#include "util/artifact_store.hpp"
#include "util/arena.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

using namespace drlhmd;

namespace {

class Args {
 public:
  /// Parses argv[first..] as flags of `command`; a flag outside `flags`
  /// is a usage error (exit 2).
  Args(int argc, char** argv, int first, const std::string& command,
       const std::vector<std::string>& flags) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument: %s\n", key.c_str());
        std::exit(2);
      }
      key = key.substr(2);
      // Both spellings work: `--key value` and `--key=value`.
      std::string value = "true";  // boolean flag
      if (const std::size_t eq = key.find('='); eq != std::string::npos) {
        value = key.substr(eq + 1);
        key.resize(eq);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      }
      if (std::find(flags.begin(), flags.end(), key) == flags.end()) {
        std::fprintf(stderr, "hmdctl %s: unknown flag --%s\n",
                     command.c_str(), key.c_str());
        std::exit(2);
      }
      values_[key] = value;
    }
  }

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  /// Every integer flag is a count or a seed, so a sign is malformed too.
  std::uint64_t get_uint(const std::string& key, std::uint64_t fallback) const {
    return get_number(key, fallback);
  }
  double get_double(const std::string& key, double fallback) const {
    return get_number(key, fallback);
  }
  bool has(const std::string& key) const { return values_.count(key) > 0; }

 private:
  /// The whole value must parse: empty input, trailing text, values out of
  /// the type's range and non-finite values are usage errors (exit 2),
  /// never a silent 0.
  template <typename T>
  T get_number(const std::string& key, T fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const std::string& text = it->second;
    T value{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end || text.empty() ||
        !std::isfinite(static_cast<double>(value))) {
      std::fprintf(stderr, "bad value for --%s: '%s'\n", key.c_str(),
                   text.c_str());
      std::exit(2);
    }
    return value;
  }

  std::map<std::string, std::string> values_;
};

void usage(std::FILE* out);

// The flags each command reads, its helpers' included.
const std::vector<std::string> kCorpusFlags = {"benign", "malware", "windows",
                                               "seed"};
const std::vector<std::string> kPipelineFlags = {"benign", "malware",
                                                 "windows", "seed", "mi"};

std::vector<std::string> with(std::vector<std::string> flags,
                              std::initializer_list<const char*> more) {
  flags.insert(flags.end(), more.begin(), more.end());
  return flags;
}

sim::CorpusConfig corpus_config(const Args& args) {
  sim::CorpusConfig cfg;
  cfg.benign_apps = static_cast<std::size_t>(args.get_uint("benign", 150));
  cfg.malware_apps = static_cast<std::size_t>(args.get_uint("malware", 150));
  cfg.windows_per_app = static_cast<std::size_t>(args.get_uint("windows", 5));
  cfg.seed = static_cast<std::uint64_t>(args.get_uint("seed", 42));
  return cfg;
}

int cmd_corpus(const Args& args) {
  const sim::CorpusConfig cfg = corpus_config(args);
  const std::string out = args.get("out", "corpus.csv");
  std::fprintf(stderr, "building corpus: %zu benign + %zu malware apps x %zu windows...\n",
               cfg.benign_apps, cfg.malware_apps, cfg.windows_per_app);
  const sim::HpcCorpus corpus = sim::build_corpus(cfg);
  util::write_csv_file(sim::corpus_to_csv(corpus), out);
  std::printf("wrote %zu labeled HPC samples (%zu features) to %s\n",
              corpus.records.size(), corpus.feature_names.size(), out.c_str());
  return 0;
}

int cmd_corpus_build(const Args& args) {
  const std::string out = args.get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "corpus build: --out DIR is required\n");
    return 2;
  }
  sim::CorpusConfig cfg = corpus_config(args);
  sim::FleetConfig fleet;
  fleet.out_dir = out;
  fleet.shards = static_cast<std::size_t>(args.get_uint("shards", 4));
  fleet.limit_shards = static_cast<std::size_t>(args.get_uint("limit-shards", 0));
  const std::string profiles = args.get("profiles", "");
  for (std::size_t at = 0; at < profiles.size();) {
    std::size_t comma = profiles.find(',', at);
    if (comma == std::string::npos) comma = profiles.size();
    if (comma > at) fleet.profiles.push_back(profiles.substr(at, comma - at));
    at = comma + 1;
  }

  std::fprintf(stderr,
               "building sharded corpus: %zu benign + %zu malware apps x %zu "
               "windows over %zu shards -> %s\n",
               cfg.benign_apps, cfg.malware_apps, cfg.windows_per_app,
               fleet.shards, out.c_str());
  const sim::ShardBuildStats stats = sim::build_corpus_sharded(cfg, fleet);
  std::printf("shards: %zu/%zu on disk (%zu built, %zu resumed), %zu rows in %.2fs%s\n",
              stats.shards_built + stats.shards_resumed, stats.shards_total,
              stats.shards_built, stats.shards_resumed, stats.rows,
              stats.build_seconds, stats.complete ? "" : " [INCOMPLETE]");
  for (const auto& [profile, rows] : stats.rows_per_profile)
    std::printf("  %-18s %zu rows\n", profile.c_str(), rows);
  return 0;
}

int cmd_corpus_info(const std::string& dir) {
  if (!std::filesystem::is_directory(dir)) {
    std::fprintf(stderr, "corpus info: '%s' is not a directory\n", dir.c_str());
    return 1;
  }
  const std::vector<ml::ShardInfo> infos = ml::ShardedDataset::inspect(dir);
  if (infos.empty()) {
    std::fprintf(stderr, "corpus info: no shard files in '%s'\n", dir.c_str());
    return 1;
  }
  util::Table table({"shard", "rows", "machine profile", "bytes", "CRC"});
  std::size_t rows = 0;
  bool all_ok = true;
  for (const ml::ShardInfo& info : infos) {
    table.add_row({std::to_string(info.index), std::to_string(info.rows),
                   info.profile_id, std::to_string(info.file_bytes),
                   info.crc_ok ? "ok" : "BAD"});
    if (info.crc_ok) rows += info.rows;
    all_ok = all_ok && info.crc_ok;
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("%zu shards, %zu valid rows%s\n", infos.size(), rows,
              all_ok ? "" : " (CRC FAILURES PRESENT)");
  return all_ok ? 0 : 1;
}

int cmd_corpus_merge(const std::string& dir, const Args& args) {
  const std::string out = args.get("out", "merged.csv");
  // open() verifies every shard CRC; a corrupt directory throws -> exit 1.
  const ml::ShardedDataset source = ml::ShardedDataset::open(dir);
  std::ofstream file(out, std::ios::out | std::ios::trunc);
  file << "label";
  for (const auto& name : source.feature_names()) file << ',' << name;
  file << '\n';
  // Stream shard by shard: the merge never holds more than the mmapped
  // views, so it works on corpora larger than RAM.
  for (std::size_t s = 0; s < source.num_shards(); ++s) {
    const ml::BatchView view = source.shard(s);
    const std::span<const int> labels = source.labels(s);
    for (std::size_t r = 0; r < view.rows(); ++r) {
      file << (labels[r] != 0 ? "malware" : "benign");
      for (std::size_t c = 0; c < view.cols(); ++c)
        file << ',' << util::Table::fmt(view.col(c)[r], 6);
      file << '\n';
    }
  }
  if (!file.good()) {
    std::fprintf(stderr, "corpus merge: cannot write '%s'\n", out.c_str());
    return 1;
  }
  std::printf("merged %zu shards (%zu rows, %zu features) into %s\n",
              source.num_shards(), source.rows(), source.num_features(),
              out.c_str());
  return 0;
}

/// Dispatch `hmdctl corpus [build|info|merge] ...`.  Bare `hmdctl corpus
/// --flags` keeps its original meaning (one in-RAM corpus to CSV).
int cmd_corpus_dispatch(int argc, char** argv) {
  const std::string sub = argc >= 3 ? argv[2] : "";
  if (sub.empty() || sub.rfind("--", 0) == 0)  // legacy CSV build
    return cmd_corpus(
        Args(argc, argv, 2, "corpus", with(kCorpusFlags, {"out"})));
  if (sub == "build")
    return cmd_corpus_build(Args(
        argc, argv, 3, "corpus build",
        with(kCorpusFlags, {"out", "shards", "limit-shards", "profiles"})));
  if (sub == "info" || sub == "merge") {
    if (argc < 4 || std::string(argv[3]).rfind("--", 0) == 0) {
      std::fprintf(stderr, "corpus %s: a shard directory is required\n",
                   sub.c_str());
      return 2;
    }
    const std::string dir = argv[3];
    if (sub == "info") {
      Args(argc, argv, 4, "corpus info", {});  // takes no flags
      return cmd_corpus_info(dir);
    }
    return cmd_corpus_merge(dir, Args(argc, argv, 4, "corpus merge", {"out"}));
  }
  std::fprintf(stderr, "hmdctl corpus: unknown subcommand '%s'\n", sub.c_str());
  usage(stderr);
  return 2;
}

int cmd_features(const Args& args) {
  const std::string in = args.get("in", "corpus.csv");
  const auto bins = static_cast<std::size_t>(args.get_uint("bins", 16));
  const auto top = static_cast<std::size_t>(args.get_uint("top", 10));
  const sim::HpcCorpus corpus = sim::corpus_from_csv(util::read_csv_file(in));
  const ml::Dataset data = sim::corpus_to_dataset(corpus);
  const auto mi = ml::mutual_information(data, bins);
  util::Table table({"rank", "event", "MI (nats)"});
  for (std::size_t k = 0; k < std::min(top, mi.ranking.size()); ++k) {
    const std::size_t f = mi.ranking[k];
    table.add_row({std::to_string(k + 1), data.feature_names[f],
                   util::Table::fmt(mi.scores[f], 4)});
  }
  std::printf("%s", table.to_string().c_str());
  return 0;
}

int cmd_simulate(const Args& args) {
  const std::string family_name = args.get("family", "ransomware");
  const auto windows = static_cast<std::size_t>(args.get_uint("windows", 4));
  util::Rng rng(static_cast<std::uint64_t>(args.get_uint("seed", 7)));

  sim::ProgramFamily family = sim::ProgramFamily::kCount;
  for (std::size_t f = 0; f < sim::kNumProgramFamilies; ++f) {
    if (sim::family_name(static_cast<sim::ProgramFamily>(f)) == family_name)
      family = static_cast<sim::ProgramFamily>(f);
  }
  if (family == sim::ProgramFamily::kCount) {
    std::fprintf(stderr, "unknown family '%s'; choose one of:", family_name.c_str());
    for (std::size_t f = 0; f < sim::kNumProgramFamilies; ++f)
      std::fprintf(stderr, " %s",
                   sim::family_name(static_cast<sim::ProgramFamily>(f)).c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }

  const sim::WorkloadSpec spec = sim::make_application(family, 0, rng);
  sim::Core core(sim::CoreConfig{}, sim::HierarchyConfig{},
                 sim::Workload(spec, rng.next()), rng.next());
  sim::PerfMonitor monitor(core, sim::PerfMonitorConfig{});
  monitor.warm_up();

  std::vector<std::string> header = {"window"};
  for (std::size_t e = 0; e < sim::kNumHpcEvents; ++e)
    header.emplace_back(sim::event_name(static_cast<sim::HpcEvent>(e)));
  util::Table table(std::move(header));
  for (std::size_t w = 0; w < windows; ++w) {
    const auto sample = monitor.sample_window();
    std::vector<std::string> row = {std::to_string(w)};
    for (double v : sample.values) row.push_back(util::Table::fmt(v, 0));
    table.add_row(std::move(row));
  }
  std::printf("app %s (%s)\n%s", spec.name.c_str(),
              spec.malware ? "malware" : "benign", table.to_csv().c_str());
  return 0;
}

void print_pipeline_report(const core::Framework& fw) {
  std::printf("features:");
  for (const auto& n : fw.selected_feature_names()) std::printf(" %s", n.c_str());
  std::printf("\nattack success: %s\n",
              util::Table::pct(fw.attack_report().success_rate).c_str());
  const auto pm = fw.evaluate_predictor();
  std::printf("predictor: ACC=%s F1=%s\n", util::Table::fmt(pm.accuracy).c_str(),
              util::Table::fmt(pm.f1).c_str());

  util::Table table({"ML", "regular F1", "attacked F1", "defended F1"});
  for (const auto& row : fw.evaluate_scenarios())
    table.add_row({row.model, util::Table::fmt(row.regular.f1),
                   util::Table::fmt(row.adversarial.f1),
                   util::Table::fmt(row.defended.f1)});
  std::printf("%s", table.to_string().c_str());

  for (const auto policy :
       {rl::ConstraintPolicy::kFastInference, rl::ConstraintPolicy::kSmallMemory,
        rl::ConstraintPolicy::kBestDetection}) {
    const auto& agent = fw.controller(policy);
    std::printf("%s -> %s (F1 %s)\n", rl::policy_name(policy).c_str(),
                agent.profile(agent.selected_model()).name.c_str(),
                util::Table::fmt(agent.evaluate(fw.attacked_test_mix()).f1).c_str());
  }
}

core::FrameworkConfig pipeline_config(const Args& args) {
  core::FrameworkConfig cfg;
  cfg.corpus = corpus_config(args);
  cfg.seed = static_cast<std::uint64_t>(args.get_uint("seed", 2024));
  if (args.has("mi")) cfg.feature_mode = core::FeatureSelectionMode::kMutualInfo;
  return cfg;
}

int cmd_pipeline(const Args& args) {
  core::Framework fw(pipeline_config(args));
  fw.run_all();
  print_pipeline_report(fw);
  return 0;
}

int cmd_save(const Args& args) {
  const std::string dir = args.get("dir", "");
  if (dir.empty()) {
    std::fprintf(stderr, "save: --dir is required\n");
    return 2;
  }
  core::Framework fw(pipeline_config(args));
  fw.run_all();
  fw.save_checkpoint(dir);
  print_pipeline_report(fw);
  std::printf("checkpoint saved to %s\n", dir.c_str());
  return 0;
}

int cmd_resume(const Args& args) {
  const std::string dir = args.get("dir", "");
  if (dir.empty()) {
    std::fprintf(stderr, "resume: --dir is required\n");
    return 2;
  }
  core::Framework fw = core::Framework::resume(dir);
  for (std::size_t p = 0; p < core::kPhaseCount; ++p) {
    const auto phase = static_cast<core::Phase>(p);
    std::printf("phase %-8s %s\n", core::phase_name(phase),
                fw.phase_done(phase) ? "restored" : "pending");
  }
  fw.run_all();  // re-runs only the pending phases
  fw.save_checkpoint(dir);
  print_pipeline_report(fw);
  return 0;
}

/// Model name suffix of a "model-defended-<i>-<name>" artifact name.
std::string defended_model_name(const std::string& artifact) {
  const std::string stem = "model-defended-";
  std::size_t pos = artifact.find('-', stem.size());
  return pos == std::string::npos ? std::string() : artifact.substr(pos + 1);
}

int cmd_verify(const Args& args) {
  const std::string dir = args.get("dir", "");
  if (dir.empty()) {
    std::fprintf(stderr, "verify: --dir is required\n");
    return 2;
  }
  const util::ArtifactStore store(dir);
  bool failed = false;

  // Envelope pass: magic + declared kind + CRC of every artifact.
  std::map<std::string, util::Artifact> intact;
  for (const std::string& name : store.list()) {
    try {
      intact[name] = store.get(name);
      std::printf("%-28s ok       %s (%zu bytes)\n", name.c_str(),
                  intact[name].kind.c_str(), intact[name].payload.size());
    } catch (const std::exception& e) {
      std::printf("%-28s CORRUPT  %s\n", name.c_str(), e.what());
      failed = true;
    }
  }

  // Vault pass: each deployed model artifact must hash to its vaulted
  // SHA-256 digest (catches CRC-valid but swapped model payloads).
  const auto vault_it = intact.find("vault");
  if (vault_it != intact.end()) {
    try {
      const integrity::ModelVault vault =
          integrity::ModelVault::deserialize(vault_it->second.payload);
      for (const auto& [name, art] : intact) {
        if (name.rfind("model-defended-", 0) != 0) continue;
        const auto status =
            vault.verify(defended_model_name(name), art.payload);
        if (status == integrity::VerificationStatus::kIntact) {
          std::printf("%-28s vault digest ok\n", name.c_str());
        } else {
          std::printf("%-28s TAMPERED (vault digest mismatch)\n", name.c_str());
          failed = true;
        }
      }
    } catch (const std::exception& e) {
      std::printf("%-28s CORRUPT  %s\n", "vault", e.what());
      failed = true;
    }
  }

  std::printf("verify: %s\n", failed ? "FAILED" : "all artifacts intact");
  return failed ? 1 : 0;
}

int cmd_attack(const Args& args) {
  core::FrameworkConfig cfg;
  cfg.corpus = corpus_config(args);
  cfg.attack.max_steps = static_cast<std::size_t>(args.get_uint("steps", 150));
  cfg.attack.confidence_margin = args.get_double("margin", 0.9);
  cfg.attack.lambda = args.get_double("lambda", 0.5);

  core::Framework fw(cfg);
  fw.acquire_data();
  fw.engineer_features();
  fw.train_baselines();
  fw.generate_attacks();

  const auto report = fw.attack_report();
  std::printf("success rate: %s, mean weighted norm %.4f, mean l-inf %.4f\n",
              util::Table::pct(report.success_rate).c_str(),
              report.mean_weighted_norm, report.mean_linf);
  util::Table table({"victim", "TPR regular", "TPR attacked"});
  for (const auto& model : fw.baseline_models()) {
    table.add_row({model->name(),
                   util::Table::fmt(model->evaluate(fw.test_set()).tpr),
                   util::Table::fmt(model->evaluate(fw.attacked_test_mix()).tpr)});
  }
  std::printf("%s", table.to_string().c_str());
  return 0;
}

int cmd_serve(const Args& args) {
  // Train the pipeline, stand up the detection-as-a-service tier, and
  // drive it with one open-loop load point (serve/loadgen.hpp).  A smoke
  // sibling of bench/hmdload: same data plane, one point, table output.
  core::Framework fw(pipeline_config(args));
  fw.run_all();

  core::RuntimeConfig rt_cfg;
  rt_cfg.retrain_threshold = 0;       // frozen models: measure the data plane
  rt_cfg.integrity_check_period = 0;
  core::DetectionRuntime runtime(fw, rt_cfg);

  const ml::Dataset& rows = fw.test_set();
  serve::ServeConfig scfg;
  scfg.hosts = static_cast<std::size_t>(args.get_uint("hosts", 256));
  scfg.ring_capacity = 8192;
  scfg.completion_capacity = 256;
  scfg.max_batch = static_cast<std::size_t>(args.get_uint("max-batch", 256));
  scfg.max_wait_us = args.get_double("max-wait-us", 500.0);
  serve::DetectionServer server(runtime, rows.num_features(), scfg);

  serve::LoadGenConfig lcfg;
  lcfg.offered_per_sec = args.get_double("rate", 20000.0);
  lcfg.duration_s = args.get_double("duration", 1.0);
  lcfg.producers = static_cast<std::size_t>(args.get_uint("producers", 1));
  std::fprintf(stderr, "serving %.0f samples/s for %.1fs over %zu hosts...\n",
               lcfg.offered_per_sec, lcfg.duration_s, scfg.hosts);
  const serve::LoadPointReport r =
      serve::run_open_loop(server, rows.X.view(), lcfg);

  util::Table table({"metric", "value"});
  table.add_row({"offered/s", util::Table::fmt(r.offered_per_sec, 0)});
  table.add_row({"sustained/s", util::Table::fmt(r.sustained_per_sec, 0)});
  table.add_row({"p50 us", util::Table::fmt(r.e2e_us.p50, 1)});
  table.add_row({"p99 us", util::Table::fmt(r.e2e_us.p99, 1)});
  table.add_row({"p999 us", util::Table::fmt(r.e2e_us.p999, 1)});
  table.add_row({"attempted", std::to_string(r.attempted)});
  table.add_row({"dropped", std::to_string(r.dropped)});
  table.add_row({"delivered", std::to_string(r.delivered)});
  table.add_row({"drop rate", util::Table::fmt(r.drop_rate, 4)});
  table.add_row({"delivered ratio", util::Table::fmt(r.delivered_ratio, 4)});
  std::printf("%s", table.to_string().c_str());
  if (!r.drained) {
    std::fprintf(stderr, "serve: drain timeout (server kept falling behind)\n");
    return 1;
  }
  return 0;
}

int cmd_telemetry(const Args& args) {
  // Structured logging first, so the pipeline's events reach the sinks.
  const std::string level_name = args.get("log-level", "warn");
  obs::LogLevel level = obs::LogLevel::kWarn;
  for (const obs::LogLevel candidate :
       {obs::LogLevel::kTrace, obs::LogLevel::kDebug, obs::LogLevel::kInfo,
        obs::LogLevel::kWarn, obs::LogLevel::kError}) {
    if (level_name == obs::level_name(candidate)) level = candidate;
  }
  obs::Logger::instance().set_level(level);
  const std::string log_path = args.get("log", "");
  if (!log_path.empty() && !obs::Logger::instance().open_jsonl(log_path)) {
    std::fprintf(stderr, "cannot open JSONL log sink: %s\n", log_path.c_str());
    return 2;
  }

  obs::Telemetry::set_enabled(true);
  obs::Telemetry::reset();

  core::FrameworkConfig cfg;
  cfg.corpus = corpus_config(args);
  cfg.seed = static_cast<std::uint64_t>(args.get_uint("seed", 2024));
  if (args.has("mi")) cfg.feature_mode = core::FeatureSelectionMode::kMutualInfo;

  core::Framework fw(cfg);
  fw.run_all();

  core::RuntimeConfig rt_cfg;
  rt_cfg.registry = &obs::Telemetry::metrics();
  rt_cfg.retrain_threshold =
      static_cast<std::size_t>(args.get_uint("retrain", 0));
  rt_cfg.integrity_check_period =
      static_cast<std::size_t>(args.get_uint("integrity-period", 100));
  const std::string policy = args.get("policy", "best");
  if (policy == "fast") {
    rt_cfg.policy = rl::ConstraintPolicy::kFastInference;
  } else if (policy == "small") {
    rt_cfg.policy = rl::ConstraintPolicy::kSmallMemory;
  } else if (policy != "best") {
    std::fprintf(stderr, "unknown --policy '%s' (fast|small|best)\n",
                 policy.c_str());
    return 2;
  }

  // Drive the deployment loop over the attacked test mixture so the stage
  // and batch latency tails and verdict counters have real traffic behind
  // them.
  core::DetectionRuntime runtime(fw, rt_cfg);
  const ml::MetricReport report =
      runtime.process_stream(fw.attacked_test_mix());
  runtime.validate_integrity();

  // Serving-tier pump: route a slice of the mix through the DetectionServer
  // against the same registry, so the drlhmd.serve.* counters and gauges
  // (queue_depth, dropped_total, sessions) ride every exporter below.
  {
    const ml::Dataset& mix = fw.attacked_test_mix();
    serve::ServeConfig scfg;
    scfg.hosts = 8;
    scfg.ring_capacity = 1024;
    scfg.completion_capacity = 256;
    scfg.max_batch = 64;
    scfg.registry = &obs::Telemetry::metrics();
    serve::DetectionServer server(runtime, mix.num_features(), scfg);
    const std::size_t n = std::min<std::size_t>(mix.size(), 128);
    for (std::size_t i = 0; i < n; ++i)
      server.try_enqueue(static_cast<std::uint32_t>(i % scfg.hosts),
                         mix.row_copy(i));
    server.poll();
    serve::VerdictRecord rec;
    for (std::uint32_t host = 0; host < scfg.hosts; ++host)
      while (server.try_pop_verdict(host, rec)) {
      }
    server.publish_gauges();
  }

  // Fold the scratch-arena footprint into the registry so every exporter
  // below (Prometheus, JSON, table) carries the drlhmd.arena.* gauges.
  obs::Telemetry::publish_arena_gauges();

  // Exporters: Chrome trace-event JSON for chrome://tracing / Perfetto,
  // and Prometheus text exposition of the whole registry.
  const std::string chrome_path = args.get("chrome-trace", "");
  if (!chrome_path.empty() && chrome_path != "true") {
    if (!obs::write_chrome_trace_file(obs::Telemetry::tracer(), chrome_path)) {
      std::fprintf(stderr, "cannot write chrome trace: %s\n",
                   chrome_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "chrome trace written to %s\n", chrome_path.c_str());
  }
  if (args.has("prom")) {
    const std::string prom =
        obs::to_prometheus(obs::Telemetry::metrics().snapshot());
    const std::string prom_path = args.get("prom", "");
    if (prom_path.empty() || prom_path == "true") {
      // `--prom` with no file: the exposition document IS the output.
      std::printf("%s", prom.c_str());
      return 0;
    }
    std::ofstream out(prom_path, std::ios::out | std::ios::trunc);
    out << prom;
    if (!out.good()) {
      std::fprintf(stderr, "cannot write exposition file: %s\n",
                   prom_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "prometheus exposition written to %s\n",
                 prom_path.c_str());
  }

  const std::string format = args.get("format", "json");
  if (format == "table") {
    std::printf("%s%s", util::banner("Phase trace").c_str(),
                obs::Telemetry::tracer().to_table().c_str());
    std::printf("%s%s", util::banner("Metrics").c_str(),
                obs::Telemetry::metrics().snapshot().to_table().c_str());
    std::printf("stream: %zu samples, F1 %s\n", fw.attacked_test_mix().size(),
                util::Table::fmt(report.f1).c_str());
    const util::ParallelStats pstats = util::parallel_stats();
    std::printf(
        "parallel: %zu threads (DRLHMD_THREADS), %llu pool regions, "
        "%llu inline regions, %llu chunks, largest region %llu chunks\n",
        pstats.threads, static_cast<unsigned long long>(pstats.regions),
        static_cast<unsigned long long>(pstats.serial_regions),
        static_cast<unsigned long long>(pstats.chunks),
        static_cast<unsigned long long>(pstats.peak_region_chunks));
    const util::ArenaStats astats = util::arena_stats();
    std::printf(
        "arena: %llu scratch arenas, %llu KiB capacity, %llu KiB high water, "
        "%llu scope reuses, %llu chunk allocations\n",
        static_cast<unsigned long long>(astats.arenas),
        static_cast<unsigned long long>(astats.capacity_bytes / 1024),
        static_cast<unsigned long long>(astats.high_water_bytes / 1024),
        static_cast<unsigned long long>(astats.scope_reuses),
        static_cast<unsigned long long>(astats.chunk_allocations));
    return 0;
  }
  if (format != "json") {
    std::fprintf(stderr, "unknown --format '%s' (json|table)\n", format.c_str());
    return 2;
  }

  obs::JsonWriter w;
  w.begin_object();
  w.key("config")
      .begin_object()
      .kv("benign_apps", static_cast<std::uint64_t>(cfg.corpus.benign_apps))
      .kv("malware_apps", static_cast<std::uint64_t>(cfg.corpus.malware_apps))
      .kv("seed", cfg.seed)
      .kv("policy", std::string_view(rl::policy_name(rt_cfg.policy)))
      .end_object();
  w.key("stream")
      .begin_object()
      .kv("samples", static_cast<std::uint64_t>(fw.attacked_test_mix().size()))
      .kv("f1", report.f1)
      .kv("accuracy", report.accuracy)
      .end_object();
  const util::ParallelStats pstats = util::parallel_stats();
  w.key("parallel")
      .begin_object()
      .kv("threads", static_cast<std::uint64_t>(pstats.threads))
      .kv("pool_regions", pstats.regions)
      .kv("inline_regions", pstats.serial_regions)
      .kv("chunks", pstats.chunks)
      .kv("peak_region_chunks", pstats.peak_region_chunks)
      .end_object();
  // drlhmd.arena.* gauges: scratch-arena footprint of the serving tier
  // (zero steady-state chunk growth is the arena design's invariant).
  const util::ArenaStats astats = util::arena_stats();
  w.key("arena")
      .begin_object()
      .kv("arenas", astats.arenas)
      .kv("capacity_bytes", astats.capacity_bytes)
      .kv("high_water_bytes", astats.high_water_bytes)
      .kv("scope_reuses", astats.scope_reuses)
      .kv("chunk_allocations", astats.chunk_allocations)
      .end_object();
  w.key("trace").raw(obs::Telemetry::tracer().to_json());
  w.key("metrics").raw(obs::Telemetry::metrics().snapshot().to_json());
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: hmdctl <command> [--flag value ...]\n"
               "commands:\n"
               "  corpus    generate a labeled HPC corpus CSV\n"
               "            --benign N --malware N --windows W --seed S --out F\n"
               "  corpus build  fleet-scale sharded corpus (mmap-able .dsh files;\n"
               "            resumes per shard if interrupted)\n"
               "            --out DIR --shards N [--benign N --malware N]\n"
               "            [--windows W --seed S --limit-shards K --profiles a,b]\n"
               "  corpus info <dir>   shard table (rows, machine profile, CRC)\n"
               "  corpus merge <dir>  stream shards into one CSV  [--out F]\n"
               "  features  mutual-information report over a corpus CSV\n"
               "            --in F --bins B --top K\n"
               "  simulate  per-window counter trace for one application\n"
               "            --family NAME --windows W --seed S\n"
               "  pipeline  run the full adversarial-resilient pipeline\n"
               "            --benign N --malware N --seed S [--mi]\n"
               "  attack    attack-only study (baselines + LowProFool)\n"
               "            --benign N --malware N --steps K --margin M\n"
               "  serve     detection-as-a-service smoke: one open-loop load\n"
               "            point through the lock-free serving tier\n"
               "            --rate R --duration S --hosts N\n"
               "            --max-batch B --max-wait-us U\n"
               "  telemetry pipeline + runtime stream with full telemetry\n"
               "            (includes drlhmd.serve.* serving-tier gauges)\n"
               "            --benign N --malware N --seed S [--mi]\n"
               "            --format json|table --policy fast|small|best\n"
               "            --retrain K --integrity-period P\n"
               "            --log FILE.jsonl --log-level LEVEL\n"
               "            --chrome-trace FILE  (trace-event JSON export)\n"
               "            --prom [FILE]  (Prometheus text exposition;\n"
               "            no FILE prints it to stdout)\n"
               "  save      run the pipeline and checkpoint it to a directory\n"
               "            --dir D --benign N --malware N --seed S [--mi]\n"
               "  resume    restore a checkpoint, run remaining phases, report\n"
               "            --dir D\n"
               "  verify    integrity-check a checkpoint (envelope CRCs +\n"
               "            vaulted SHA-256 digests of deployed models)\n"
               "            --dir D\n"
               "  help      show this listing\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(stderr);
    return 2;
  }
  const std::string command = argv[1];
  if (command == "help" || command == "--help" || command == "-h") {
    usage(stdout);
    return 0;
  }
  try {
    // corpus takes positional subcommands (build|info|merge), so it is
    // dispatched before the flags-only Args parse below.
    if (command == "corpus") return cmd_corpus_dispatch(argc, argv);
    const struct {
      const char* name;
      int (*run)(const Args&);
      std::vector<std::string> flags;
    } commands[] = {
        {"features", cmd_features, {"in", "bins", "top"}},
        {"simulate", cmd_simulate, {"family", "windows", "seed"}},
        {"pipeline", cmd_pipeline, kPipelineFlags},
        {"attack", cmd_attack,
         with(kCorpusFlags, {"steps", "margin", "lambda"})},
        {"serve", cmd_serve,
         with(kPipelineFlags, {"hosts", "max-batch", "max-wait-us", "rate",
                               "duration", "producers"})},
        {"telemetry", cmd_telemetry,
         with(kPipelineFlags,
              {"log-level", "log", "retrain", "integrity-period", "policy",
               "chrome-trace", "prom", "format"})},
        {"save", cmd_save, with(kPipelineFlags, {"dir"})},
        {"resume", cmd_resume, {"dir"}},
        {"verify", cmd_verify, {"dir"}},
    };
    for (const auto& cmd : commands)
      if (command == cmd.name)
        return cmd.run(Args(argc, argv, 2, command, cmd.flags));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hmdctl %s: %s\n", command.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "hmdctl: unknown command '%s'\n", command.c_str());
  usage(stderr);
  return 2;
}
