// Deterministic parallel execution layer.
//
// A lazily-initialized global thread pool (width from DRLHMD_THREADS,
// default std::thread::hardware_concurrency, 1 = fully serial) executes
// statically-chunked index ranges.  Determinism is the design center:
//
//   * Chunk layout depends only on (range size, grain) — never on the
//     thread count — so per-chunk work assignment is reproducible.
//   * Results are written to pre-sized slots indexed by the loop variable;
//     no reduction order ever depends on scheduling.
//   * Stochastic chunk bodies draw from counter-seeded Rng streams
//     (chunk_rng: splitmix64 on base_seed ^ chunk_index), giving every
//     chunk an independent, scheduling-invariant stream.
//
// Together these make parallel and serial runs bitwise identical at any
// DRLHMD_THREADS value.  Nested calls (a parallel_for issued from inside a
// chunk) degrade to inline serial execution over the same chunk layout, so
// composition is deadlock-free and still deterministic.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "util/rng.hpp"

namespace drlhmd::util {

/// Effective pool width (worker threads + the calling thread), >= 1.
/// First call initializes the pool from DRLHMD_THREADS / hardware size.
std::size_t parallel_thread_count();

/// Re-size the pool (bench/test hook; 0 = re-read DRLHMD_THREADS/hardware).
/// Must not be called from inside a parallel region.
void set_parallel_threads(std::size_t n);

/// True while the current thread is executing a chunk of a parallel region.
bool in_parallel_region();

/// Cumulative pool activity since process start (monotonic, thread-safe).
struct ParallelStats {
  std::size_t threads = 1;           // current pool width
  std::uint64_t regions = 0;         // regions dispatched to the pool
  std::uint64_t serial_regions = 0;  // regions executed inline (serial/nested)
  std::uint64_t chunks = 0;          // chunk tasks executed via the pool
  std::uint64_t peak_region_chunks = 0;  // largest region so far
};
ParallelStats parallel_stats();

/// Hook for the observability layer (obs::Telemetry installs one; util
/// cannot depend on obs).  `begin` runs on the calling thread before the
/// region is dispatched and its return value is handed back to `end` after
/// the region completes — an RAII-shaped pair for spans + gauges.
class ParallelObserver {
 public:
  virtual ~ParallelObserver() = default;
  virtual void* region_begin(const char* label, std::size_t n_chunks,
                             std::size_t n_threads) = 0;
  /// Called once per completed chunk of an observed region — from whichever
  /// thread ran the chunk, with the chunk's wall-clock duration.  Only fires
  /// when region_begin returned a non-null token.  Default: no-op, so the
  /// timing wrapper is skipped entirely for unobserved regions.
  virtual void chunk_done(void* token, std::size_t chunk_index,
                          double duration_us) {
    (void)token;
    (void)chunk_index;
    (void)duration_us;
  }
  virtual void region_end(void* token) = 0;
};
/// Install (or clear with nullptr) the process-wide observer; not owned.
void set_parallel_observer(ParallelObserver* observer);

/// Counter-seeded independent RNG stream for one chunk of a parallel
/// region: Rng(splitmix64(base_seed ^ chunk_index)).
inline Rng chunk_rng(std::uint64_t base_seed, std::uint64_t chunk_index) {
  return Rng(splitmix64(base_seed ^ chunk_index));
}

/// Chunk size actually used for a range of n items: `grain` when given,
/// otherwise n/64 (min 1).  Depends only on (n, grain) — deterministic.
std::size_t parallel_resolve_grain(std::size_t n, std::size_t grain);

namespace detail {

/// Non-owning, trivially-copyable reference to a `void(std::size_t)`
/// callable: a context pointer plus a call thunk.  Unlike std::function it
/// never heap-allocates, which keeps region dispatch malloc-free — the
/// serving tier asserts zero allocations in steady-state process_batch.
/// The referenced callable must outlive every invocation (run_chunks only
/// invokes it before returning, so stack lambdas are safe).
class ChunkFnRef {
 public:
  ChunkFnRef() = default;
  template <typename Fn,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<Fn>, ChunkFnRef> &&
                std::is_invocable_v<Fn&, std::size_t>>>
  ChunkFnRef(Fn&& fn)  // NOLINT(google-explicit-constructor)
      : ctx_(const_cast<void*>(
            static_cast<const void*>(std::addressof(fn)))),
        call_([](void* ctx, std::size_t c) {
          (*static_cast<std::remove_reference_t<Fn>*>(ctx))(c);
        }) {}

  void operator()(std::size_t c) const { call_(ctx_, c); }
  explicit operator bool() const { return call_ != nullptr; }

 private:
  void* ctx_ = nullptr;
  void (*call_)(void*, std::size_t) = nullptr;
};

/// Execute chunk_fn(0..n_chunks-1), on the pool when profitable, inline
/// otherwise (pool width 1, single chunk, or nested region).  Exceptions
/// from chunks are captured and the first one rethrown on the caller.
void run_chunks(const char* label, std::size_t n_chunks, ChunkFnRef chunk_fn);

}  // namespace detail

/// Chunk-granular loop: fn(chunk_index, chunk_begin, chunk_end) for each
/// statically-assigned chunk of [begin, end).  The chunk index is the one
/// to feed chunk_rng.
template <typename Fn>
void parallel_for_chunks(const char* label, std::size_t begin, std::size_t end,
                         std::size_t grain, Fn&& fn) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  const std::size_t g = parallel_resolve_grain(n, grain);
  const std::size_t n_chunks = (n + g - 1) / g;
  detail::run_chunks(label, n_chunks, [&](std::size_t c) {
    const std::size_t b = begin + c * g;
    fn(c, b, std::min(end, b + g));
  });
}

/// Element-granular loop: fn(i) for i in [begin, end), grouped into chunks
/// of `grain` (0 = auto).
template <typename Fn>
void parallel_for(const char* label, std::size_t begin, std::size_t end,
                  std::size_t grain, Fn&& fn) {
  parallel_for_chunks(label, begin, end, grain,
                      [&](std::size_t, std::size_t b, std::size_t e) {
                        for (std::size_t i = b; i < e; ++i) fn(i);
                      });
}

template <typename Fn>
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  Fn&& fn) {
  parallel_for(nullptr, begin, end, grain, std::forward<Fn>(fn));
}

/// Map fn over [begin, end) into a pre-sized vector (slot i-begin receives
/// fn(i)); result order is index order, independent of scheduling.
template <typename Fn>
auto parallel_map(const char* label, std::size_t begin, std::size_t end,
                  std::size_t grain, Fn&& fn) {
  using R = std::decay_t<std::invoke_result_t<Fn&, std::size_t>>;
  std::vector<R> out(end > begin ? end - begin : 0);
  parallel_for(label, begin, end, grain,
               [&](std::size_t i) { out[i - begin] = fn(i); });
  return out;
}

template <typename Fn>
auto parallel_map(std::size_t begin, std::size_t end, std::size_t grain,
                  Fn&& fn) {
  return parallel_map(nullptr, begin, end, grain, std::forward<Fn>(fn));
}

}  // namespace drlhmd::util
