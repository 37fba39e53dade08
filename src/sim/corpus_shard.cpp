#include "sim/corpus_shard.hpp"

#include <chrono>
#include <filesystem>
#include <stdexcept>

#include "ml/sharded_dataset.hpp"
#include "util/artifact_store.hpp"
#include "util/parallel.hpp"
#include "util/serialize.hpp"

namespace drlhmd::sim {
namespace {

constexpr const char* kManifestName = "manifest";
constexpr const char* kManifestKind = "drlhmd.sim.fleet-manifest";
constexpr const char* kMarkerKind = "drlhmd.sim.shard-marker";
constexpr std::uint32_t kStateVersion = 1;

std::string marker_name(std::size_t shard) {
  return "shard-" + std::to_string(shard);
}

/// Everything a shard's bytes depend on besides the shard index.  Resuming
/// against a directory built with a different fingerprint would silently
/// mix incompatible rows, so the store pins it and we compare bytes.
std::vector<std::uint8_t> fleet_fingerprint(
    const CorpusConfig& config, const FleetConfig& fleet,
    const std::vector<std::string>& profile_ids) {
  util::ByteWriter w;
  w.write_u64(config.seed);
  w.write_u64(config.benign_apps);
  w.write_u64(config.malware_apps);
  w.write_u64(config.windows_per_app);
  w.write_u64(fleet.shards);
  w.write_u64(profile_ids.size());
  for (const auto& id : profile_ids) w.write_string(id);
  return w.take();
}

/// Simulate shard `s`: the same plan/execute structure as build_corpus, but
/// over the shard's slice of the global application population, on the
/// shard's machine profile, drawing from the shard's own rng stream.
ml::Dataset build_shard(const CorpusConfig& config, const FleetConfig& fleet,
                        const MachineProfile& machine, std::size_t s,
                        std::vector<std::string>& feature_names) {
  util::Rng rng = util::chunk_rng(config.seed, s);
  feature_names = PerfMonitor::feature_names();

  const auto benign = benign_families();
  const auto malware = malware_families();

  std::size_t benign_start = 0, malware_start = 0;
  for (std::size_t i = 0; i < s; ++i) {
    benign_start += shard_app_count(config.benign_apps, fleet.shards, i);
    malware_start += shard_app_count(config.malware_apps, fleet.shards, i);
  }
  const std::size_t benign_count =
      shard_app_count(config.benign_apps, fleet.shards, s);
  const std::size_t malware_count =
      shard_app_count(config.malware_apps, fleet.shards, s);

  // Serial pre-pass, mirroring build_corpus: specs and seeds come off the
  // shard rng in a fixed order, so the shard is thread-count independent.
  // App ids are global, so a family's id-conditioned variation spans the
  // whole fleet population, not one shard.
  struct AppPlan {
    WorkloadSpec spec;
    std::uint64_t workload_seed = 0;
    std::uint64_t core_seed = 0;
  };
  std::vector<AppPlan> plans;
  plans.reserve(benign_count + malware_count);
  auto plan_app = [&](ProgramFamily family, std::size_t app_id) {
    AppPlan plan;
    plan.spec = make_application(family, static_cast<std::uint32_t>(app_id), rng);
    plan.workload_seed = rng.next();
    plan.core_seed = rng.next();
    plans.push_back(std::move(plan));
  };
  for (std::size_t i = benign_start; i < benign_start + benign_count; ++i)
    plan_app(benign[i % benign.size()], i);
  for (std::size_t i = malware_start; i < malware_start + malware_count; ++i)
    plan_app(malware[i % malware.size()], i);

  // Simulate the shard's applications in parallel on the shard's machine;
  // fresh cold hierarchy per application, exactly as build_corpus does.
  const std::size_t windows = config.windows_per_app;
  std::vector<std::vector<HpcRecord>> blocks = util::parallel_map(
      "corpus_shard.apps", 0, plans.size(), 1, [&](std::size_t a) {
        const AppPlan& plan = plans[a];
        Core core(machine.core, machine.hierarchy,
                  Workload(plan.spec, plan.workload_seed), plan.core_seed);
        PerfMonitor monitor(core, config.monitor);
        monitor.warm_up();
        std::vector<HpcRecord> records;
        records.reserve(windows);
        for (std::size_t w = 0; w < windows; ++w) {
          HpcRecord rec;
          rec.app = plan.spec.name;
          rec.family = plan.spec.family;
          rec.malware = plan.spec.malware;
          rec.features = monitor.sample_window().values;
          records.push_back(std::move(rec));
        }
        return records;
      });

  HpcCorpus corpus;
  corpus.feature_names = feature_names;
  corpus.records.reserve(plans.size() * windows);
  for (auto& block : blocks)
    for (auto& rec : block) corpus.records.push_back(std::move(rec));
  return corpus_to_dataset(corpus);
}

}  // namespace

std::size_t shard_app_count(std::size_t total, std::size_t shards,
                            std::size_t s) {
  return total / shards + (s < total % shards ? 1 : 0);
}

ShardBuildStats build_corpus_sharded(const CorpusConfig& config,
                                     const FleetConfig& fleet) {
  if (config.windows_per_app == 0)
    throw std::invalid_argument("build_corpus_sharded: windows_per_app must be > 0");
  if (fleet.shards == 0)
    throw std::invalid_argument("build_corpus_sharded: shards must be > 0");
  if (fleet.out_dir.empty())
    throw std::invalid_argument("build_corpus_sharded: out_dir must be set");

  std::vector<std::string> profile_ids = fleet.profiles;
  if (profile_ids.empty())
    for (const MachineProfile& p : machine_profiles()) profile_ids.push_back(p.id);
  for (const auto& id : profile_ids) machine_profile(id);  // validate early

  const auto t0 = std::chrono::steady_clock::now();
  std::filesystem::create_directories(fleet.out_dir);
  const util::ArtifactStore state(
      (std::filesystem::path(fleet.out_dir) / "state").string());

  const std::vector<std::uint8_t> fingerprint =
      fleet_fingerprint(config, fleet, profile_ids);
  if (state.contains(kManifestName)) {
    const util::Artifact existing = state.get(kManifestName);
    if (existing.kind != kManifestKind ||
        existing.version != kStateVersion ||
        existing.payload != fingerprint)
      throw std::runtime_error(
          "build_corpus_sharded: '" + fleet.out_dir +
          "' holds shards built with different parameters; remove the "
          "directory (or point out_dir elsewhere) to rebuild");
  } else {
    state.put(kManifestName, kManifestKind, kStateVersion, fingerprint);
  }

  // Survey what already survived a previous (possibly interrupted) run.  A
  // file speaks for shard s only under s's canonical name: one this build
  // did not write can neither stand in for a shard nor condemn one.
  std::map<std::size_t, bool> valid_on_disk;
  for (const ml::ShardInfo& info : ml::ShardedDataset::inspect(fleet.out_dir))
    if (std::filesystem::path(info.path).filename() ==
        ml::shard_file_name(info.index))
      valid_on_disk[info.index] = info.crc_ok;

  ShardBuildStats stats;
  stats.shards_total = fleet.shards;
  for (std::size_t s = 0; s < fleet.shards; ++s) {
    const bool checkpointed = state.contains(marker_name(s));
    const auto it = valid_on_disk.find(s);
    if (checkpointed && it != valid_on_disk.end() && it->second) {
      ++stats.shards_resumed;
      continue;
    }
    if (fleet.limit_shards != 0 && stats.shards_built >= fleet.limit_shards)
      continue;  // simulated interrupt: leave the remaining shards unbuilt

    const MachineProfile& machine =
        machine_profile(profile_ids[s % profile_ids.size()]);
    std::vector<std::string> feature_names;
    const ml::Dataset data = build_shard(config, fleet, machine, s, feature_names);
    const std::string path =
        (std::filesystem::path(fleet.out_dir) / ml::shard_file_name(s)).string();
    ml::write_shard(path, static_cast<std::uint32_t>(s), machine.id,
                    feature_names, data.X, data.y);

    util::ByteWriter marker;
    marker.write_u64(data.size());
    marker.write_string(machine.id);
    state.put(marker_name(s), kMarkerKind, kStateVersion, marker.take());
    ++stats.shards_built;
  }

  // Final accounting from what is actually on disk now.
  for (const ml::ShardInfo& info : ml::ShardedDataset::inspect(fleet.out_dir)) {
    if (!info.crc_ok) continue;
    stats.rows += info.rows;
    stats.rows_per_profile[info.profile_id] += info.rows;
  }
  stats.complete = stats.shards_resumed + stats.shards_built == fleet.shards;
  stats.build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return stats;
}

}  // namespace drlhmd::sim
