// Property sweeps over hierarchy geometries: the counting invariants of the
// demand path must hold for any sane cache configuration and access stream.
#include <gtest/gtest.h>

#include "sim/memory_hierarchy.hpp"
#include "util/rng.hpp"

namespace drlhmd::sim {
namespace {

struct Geometry {
  const char* name;
  std::uint64_t l1d_kib;
  std::uint64_t l2_kib;
  std::uint64_t llc_kib;
  HierarchyConfig::Prefetch prefetch;
};

// Print the geometry by name: gtest's default byte dump would put the
// address of `name` into the reported test names, so they would change with
// every build.
void PrintTo(const Geometry& g, std::ostream* os) { *os << g.name; }

class GeometrySweep : public ::testing::TestWithParam<Geometry> {
 protected:
  HierarchyConfig config() const {
    HierarchyConfig cfg;
    const Geometry& g = GetParam();
    cfg.l1d.size_bytes = g.l1d_kib * 1024;
    cfg.l2.size_bytes = g.l2_kib * 1024;
    cfg.llc.size_bytes = g.llc_kib * 1024;
    cfg.prefetch = g.prefetch;
    return cfg;
  }
};

TEST_P(GeometrySweep, DemandPathInvariants) {
  MemoryHierarchy mh(config());
  EventCounts counts;
  util::Rng rng(31);
  constexpr int kAccesses = 30000;
  for (int i = 0; i < kAccesses; ++i) {
    // Mix of streaming, hot-set and sparse-random traffic.
    std::uint64_t addr;
    const double roll = rng.uniform();
    if (roll < 0.4) {
      addr = 0x1000000 + static_cast<std::uint64_t>(i) * 64 % (4u << 20);
    } else if (roll < 0.7) {
      addr = 0x8000000 + rng.next_below(32 * 1024);
    } else {
      addr = 0x10000000 + rng.next_below(64ull << 20);
    }
    mh.access_data(addr, rng.bernoulli(0.3), counts);
  }

  // Demand-event relations hold regardless of geometry or prefetcher.
  EXPECT_EQ(counts[HpcEvent::kL1DcacheLoads] + counts[HpcEvent::kL1DcacheStores],
            static_cast<std::uint64_t>(kAccesses));
  EXPECT_EQ(counts[HpcEvent::kL2Accesses],
            counts[HpcEvent::kL1DcacheLoadMisses] +
                counts[HpcEvent::kL1DcacheStoreMisses]);
  EXPECT_EQ(counts[HpcEvent::kCacheReferences], counts[HpcEvent::kL2Misses]);
  EXPECT_EQ(counts[HpcEvent::kLlcLoads] + counts[HpcEvent::kLlcStores],
            counts[HpcEvent::kCacheReferences]);
  EXPECT_EQ(counts[HpcEvent::kLlcLoadMisses] + counts[HpcEvent::kLlcStoreMisses],
            counts[HpcEvent::kCacheMisses]);
  EXPECT_LE(counts[HpcEvent::kCacheMisses], counts[HpcEvent::kCacheReferences]);
  EXPECT_LE(counts[HpcEvent::kDtlbLoadMisses], counts[HpcEvent::kDtlbLoads]);
  EXPECT_LE(counts[HpcEvent::kDtlbStoreMisses], counts[HpcEvent::kDtlbStores]);
  // Prefetch misses never exceed prefetch fills.
  EXPECT_LE(counts[HpcEvent::kLlcPrefetchMisses], counts[HpcEvent::kLlcPrefetches]);
}

TEST_P(GeometrySweep, HotSetSuffersOnlyColdLlcMisses) {
  // A 96 KiB hot set fits inside every LLC in the sweep, so after first
  // touch there are no capacity misses: total LLC misses stay within a
  // small multiple of the distinct-line count (cold misses + conflict
  // slack), regardless of where in the hierarchy the set settles.
  MemoryHierarchy mh(config());
  EventCounts counts;
  util::Rng rng(37);
  for (int i = 0; i < 40000; ++i)
    mh.access_data(rng.next_below(96 * 1024), false, counts);
  const std::uint64_t distinct_lines = 96 * 1024 / 64;
  EXPECT_LE(counts[HpcEvent::kCacheMisses], 2 * distinct_lines)
      << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, GeometrySweep,
    ::testing::Values(
        Geometry{"tiny", 8, 64, 256, HierarchyConfig::Prefetch::kNone},
        Geometry{"nominal", 16, 128, 1024, HierarchyConfig::Prefetch::kNone},
        Geometry{"nominal_stride", 16, 128, 1024, HierarchyConfig::Prefetch::kStride},
        Geometry{"nominal_nextline", 16, 128, 1024,
                 HierarchyConfig::Prefetch::kNextLine},
        Geometry{"large", 32, 512, 4096, HierarchyConfig::Prefetch::kNone}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace drlhmd::sim
