// Fleet-scale sharded corpus builds: machine-profile registry, shard
// determinism across thread counts, per-shard resume after a simulated
// interrupt or a truncated shard, and the parameter-fingerprint guard.
#include "sim/corpus_shard.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <vector>

#include "ml/sharded_dataset.hpp"
#include "sim/machine_profile.hpp"
#include "util/parallel.hpp"

namespace drlhmd::sim {
namespace {

std::string fresh_dir(const std::string& leaf) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / leaf).string();
  std::filesystem::remove_all(dir);
  return dir;
}

std::vector<char> file_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

CorpusConfig small_corpus() {
  CorpusConfig cfg;
  cfg.benign_apps = 8;
  cfg.malware_apps = 8;
  cfg.windows_per_app = 2;
  cfg.seed = 77;
  return cfg;
}

FleetConfig small_fleet(const std::string& out_dir) {
  FleetConfig fleet;
  fleet.shards = 3;
  fleet.out_dir = out_dir;
  fleet.profiles = {"testbed-i7", "embedded-small"};
  return fleet;
}

class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(util::parallel_thread_count()) {}
  ~ThreadCountGuard() { util::set_parallel_threads(saved_); }

 private:
  std::size_t saved_;
};

TEST(MachineProfileTest, RegistryHasUniqueStableIds) {
  const auto& profiles = machine_profiles();
  ASSERT_GE(profiles.size(), 4u);
  std::set<std::string> ids;
  for (const auto& p : profiles) {
    EXPECT_FALSE(p.id.empty());
    EXPECT_FALSE(p.description.empty());
    EXPECT_TRUE(ids.insert(p.id).second) << "duplicate profile id " << p.id;
  }
  // Profile 0 is the nominal testbed: default configs, so a single-profile
  // fleet reproduces build_corpus machine-for-machine.
  EXPECT_EQ(profiles[0].id, "testbed-i7");
  EXPECT_EQ(profiles[0].hierarchy.llc.size_bytes, HierarchyConfig{}.llc.size_bytes);
}

TEST(MachineProfileTest, LookupByIdAndUnknownThrows) {
  const MachineProfile& p = machine_profile("server-srrip");
  EXPECT_EQ(p.id, "server-srrip");
  EXPECT_EQ(p.hierarchy.llc.policy, ReplacementPolicy::kSrrip);
  EXPECT_THROW(machine_profile("no-such-machine"), std::invalid_argument);
}

TEST(ShardAppCountTest, PartitionCoversTotalContiguously) {
  for (std::size_t total : {0u, 1u, 7u, 8u, 300u}) {
    std::size_t sum = 0;
    for (std::size_t s = 0; s < 3; ++s) sum += shard_app_count(total, 3, s);
    EXPECT_EQ(sum, total);
  }
  EXPECT_EQ(shard_app_count(8, 3, 0), 3u);  // remainder lands on leading shards
  EXPECT_EQ(shard_app_count(8, 3, 1), 3u);
  EXPECT_EQ(shard_app_count(8, 3, 2), 2u);
}

TEST(CorpusShardTest, BuildsAllShardsWithExpectedRows) {
  const std::string dir = fresh_dir("fleet-basic");
  const ShardBuildStats stats = build_corpus_sharded(small_corpus(), small_fleet(dir));
  EXPECT_EQ(stats.shards_total, 3u);
  EXPECT_EQ(stats.shards_built, 3u);
  EXPECT_EQ(stats.shards_resumed, 0u);
  EXPECT_TRUE(stats.complete);
  EXPECT_EQ(stats.rows, 16u * 2u);  // (8+8) apps x 2 windows

  const ml::ShardedDataset source = ml::ShardedDataset::open(dir);
  ASSERT_EQ(source.num_shards(), 3u);
  EXPECT_EQ(source.rows(), 32u);
  // Profiles assigned round-robin over the restricted set.
  EXPECT_EQ(source.profile_id(0), "testbed-i7");
  EXPECT_EQ(source.profile_id(1), "embedded-small");
  EXPECT_EQ(source.profile_id(2), "testbed-i7");
  source.validate();
  // Per-profile row accounting matches the shard assignment.
  ASSERT_EQ(stats.rows_per_profile.size(), 2u);
  EXPECT_EQ(stats.rows_per_profile.at("testbed-i7"),
            source.shard(0).rows() + source.shard(2).rows());
  EXPECT_EQ(stats.rows_per_profile.at("embedded-small"), source.shard(1).rows());
}

TEST(CorpusShardTest, ShardBytesAreThreadCountInvariant) {
  ThreadCountGuard guard;
  const CorpusConfig cfg = small_corpus();
  std::vector<std::vector<std::vector<char>>> runs;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    util::set_parallel_threads(threads);
    const std::string dir = fresh_dir("fleet-t" + std::to_string(threads));
    build_corpus_sharded(cfg, small_fleet(dir));
    std::vector<std::vector<char>> shards;
    for (std::uint32_t s = 0; s < 3; ++s)
      shards.push_back(file_bytes(
          (std::filesystem::path(dir) / ml::shard_file_name(s)).string()));
    runs.push_back(std::move(shards));
  }
  for (std::size_t run = 1; run < runs.size(); ++run)
    for (std::size_t s = 0; s < 3; ++s) {
      ASSERT_FALSE(runs[run][s].empty());
      EXPECT_EQ(runs[run][s], runs[0][s])
          << "shard " << s << " differs between thread counts";
    }
}

TEST(CorpusShardTest, ResumesPerShardAfterInterrupt) {
  const CorpusConfig cfg = small_corpus();

  // Reference: one uninterrupted build.
  const std::string full_dir = fresh_dir("fleet-full");
  build_corpus_sharded(cfg, small_fleet(full_dir));

  // Interrupted build: stop after 2 new shards, then resume.
  const std::string dir = fresh_dir("fleet-resume");
  FleetConfig interrupted = small_fleet(dir);
  interrupted.limit_shards = 2;
  const ShardBuildStats first = build_corpus_sharded(cfg, interrupted);
  EXPECT_EQ(first.shards_built, 2u);
  EXPECT_EQ(first.shards_resumed, 0u);
  EXPECT_FALSE(first.complete);
  EXPECT_FALSE(std::filesystem::exists(
      std::filesystem::path(dir) / ml::shard_file_name(2)));

  const ShardBuildStats second = build_corpus_sharded(cfg, small_fleet(dir));
  EXPECT_EQ(second.shards_built, 1u);
  EXPECT_EQ(second.shards_resumed, 2u);
  EXPECT_TRUE(second.complete);

  // Resume must not have re-simulated or perturbed the surviving shards:
  // every shard file is byte-identical to the uninterrupted build.
  for (std::uint32_t s = 0; s < 3; ++s) {
    const auto resumed = file_bytes(
        (std::filesystem::path(dir) / ml::shard_file_name(s)).string());
    const auto reference = file_bytes(
        (std::filesystem::path(full_dir) / ml::shard_file_name(s)).string());
    ASSERT_FALSE(resumed.empty());
    EXPECT_EQ(resumed, reference) << "shard " << s;
  }

  // A third run is a pure no-op resume.
  const ShardBuildStats third = build_corpus_sharded(cfg, small_fleet(dir));
  EXPECT_EQ(third.shards_built, 0u);
  EXPECT_EQ(third.shards_resumed, 3u);
  EXPECT_TRUE(third.complete);
}

TEST(CorpusShardTest, ResumeRebuildsOnlyATruncatedShard) {
  const CorpusConfig cfg = small_corpus();
  const std::string dir = fresh_dir("fleet-truncated");
  build_corpus_sharded(cfg, small_fleet(dir));
  const auto path_of = [&dir](std::uint32_t s) {
    return (std::filesystem::path(dir) / ml::shard_file_name(s)).string();
  };
  std::vector<std::vector<char>> reference;
  for (std::uint32_t s = 0; s < 3; ++s)
    reference.push_back(file_bytes(path_of(s)));

  // 6 bytes: too short for even the magic and the header size, so the file
  // carries no header index of its own.
  std::filesystem::resize_file(path_of(2), 6);
  const std::vector<ml::ShardInfo> infos = ml::ShardedDataset::inspect(dir);
  ASSERT_EQ(infos.size(), 3u);
  for (std::uint32_t s = 0; s < 3; ++s) {
    EXPECT_EQ(infos[s].index, s);
    EXPECT_EQ(std::filesystem::path(infos[s].path).filename(),
              ml::shard_file_name(s));
    EXPECT_EQ(infos[s].crc_ok, s != 2) << "shard " << s;
  }

  const ShardBuildStats resumed = build_corpus_sharded(cfg, small_fleet(dir));
  EXPECT_EQ(resumed.shards_built, 1u);
  EXPECT_EQ(resumed.shards_resumed, 2u);
  EXPECT_TRUE(resumed.complete);
  for (std::uint32_t s = 0; s < 3; ++s)
    EXPECT_EQ(file_bytes(path_of(s)), reference[s]) << "shard " << s;
}

TEST(CorpusShardTest, RefusesMismatchedResumeParameters) {
  const std::string dir = fresh_dir("fleet-mismatch");
  FleetConfig fleet = small_fleet(dir);
  fleet.limit_shards = 1;  // keep the test cheap: one shard is enough state
  build_corpus_sharded(small_corpus(), fleet);

  CorpusConfig other = small_corpus();
  other.seed = 78;
  EXPECT_THROW(build_corpus_sharded(other, fleet), std::runtime_error);

  FleetConfig more_shards = fleet;
  more_shards.shards = 4;
  EXPECT_THROW(build_corpus_sharded(small_corpus(), more_shards),
               std::runtime_error);

  // Changing only limit_shards is a legal resume, not a mismatch.
  FleetConfig no_limit = fleet;
  no_limit.limit_shards = 0;
  EXPECT_NO_THROW(build_corpus_sharded(small_corpus(), no_limit));
}

TEST(CorpusShardTest, RejectsBadConfig) {
  FleetConfig fleet;
  fleet.out_dir = fresh_dir("fleet-bad");
  fleet.shards = 0;
  EXPECT_THROW(build_corpus_sharded(small_corpus(), fleet), std::invalid_argument);
  fleet.shards = 2;
  fleet.profiles = {"no-such-machine"};
  EXPECT_THROW(build_corpus_sharded(small_corpus(), fleet), std::invalid_argument);
  FleetConfig no_dir;
  no_dir.out_dir.clear();
  EXPECT_THROW(build_corpus_sharded(small_corpus(), no_dir), std::invalid_argument);
}

}  // namespace
}  // namespace drlhmd::sim
