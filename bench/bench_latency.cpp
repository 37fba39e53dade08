// google-benchmark microbenchmarks backing Figure 4(a)'s latency/memory
// columns: per-sample inference latency of every detector (baseline-trained)
// plus the A2C predictor and SHA-256 hashing of model bytes.
#include <benchmark/benchmark.h>

#include <array>
#include <map>
#include <memory>

#include "sim/cache.hpp"
#include "core/framework.hpp"
#include "integrity/sha256.hpp"
#include "ml/model_zoo.hpp"
#include "rl/adversarial_predictor.hpp"
#include "util/rng.hpp"

using namespace drlhmd;

namespace {

/// Small synthetic 4-feature problem (models see the same width as the
/// engineered HPC space); built once and shared.
const ml::Dataset& train_data() {
  static const ml::Dataset data = [] {
    util::Rng rng(42);
    ml::Dataset d;
    for (int i = 0; i < 1000; ++i) {
      std::vector<double> benign(4), malware(4);
      for (int c = 0; c < 4; ++c) {
        benign[c] = rng.normal(0.0, 1.0);
        malware[c] = rng.normal(2.5, 1.0);
      }
      d.push(std::move(benign), 0);
      d.push(std::move(malware), 1);
    }
    return d;
  }();
  return data;
}

const ml::Classifier& model_for(ml::ModelKind kind) {
  static std::map<int, std::unique_ptr<ml::Classifier>> cache;
  auto& slot = cache[static_cast<int>(kind)];
  if (!slot) {
    slot = ml::make_model(kind);
    slot->fit(train_data());
  }
  return *slot;
}

void bench_predict(benchmark::State& state, ml::ModelKind kind) {
  const ml::Classifier& model = model_for(kind);
  const std::vector<double> x = {0.5, -0.2, 1.1, 0.3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict_proba(x));
  }
  state.counters["model_bytes"] =
      static_cast<double>(model.serialize().size());
}

}  // namespace

BENCHMARK_CAPTURE(bench_predict, RF, ml::ModelKind::kRf);
BENCHMARK_CAPTURE(bench_predict, DT, ml::ModelKind::kDt);
BENCHMARK_CAPTURE(bench_predict, LR, ml::ModelKind::kLr);
BENCHMARK_CAPTURE(bench_predict, MLP, ml::ModelKind::kMlp);
BENCHMARK_CAPTURE(bench_predict, LightGBM, ml::ModelKind::kLightGbm);
BENCHMARK_CAPTURE(bench_predict, NN, ml::ModelKind::kNn);

static void bench_predictor_feedback(benchmark::State& state) {
  static const rl::AdversarialPredictor& predictor = [] {
    static rl::AdversarialPredictor p(4);
    util::Rng rng(7);
    ml::Dataset adv, legit;
    for (int i = 0; i < 200; ++i) {
      std::vector<double> a(4), l(4);
      for (int c = 0; c < 4; ++c) {
        a[c] = rng.normal(-3, 0.5);
        l[c] = rng.normal(1, 0.8);
      }
      adv.push(std::move(a), 1);
      legit.push(std::move(l), 0);
    }
    p.train(adv, legit);
    return std::ref(p).get();
  }();
  const std::vector<double> x = {0.5, -0.2, 1.1, 0.3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(predictor.feedback_reward(x));
  }
}
BENCHMARK(bench_predictor_feedback);

static void bench_sha256_model(benchmark::State& state) {
  const auto bytes = model_for(ml::ModelKind::kRf).serialize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(integrity::sha256(bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(bench_sha256_model);

// The two SHA-256 block functions on the RF model's whole 64-byte blocks, so
// one run shows the MB/s of both paths; the hardware run is skipped, with a
// message, on a CPU without the SHA extensions.
static void bench_sha256_blocks(benchmark::State& state, bool hardware) {
  const auto bytes = model_for(ml::ModelKind::kRf).serialize();
  const std::size_t blocks = bytes.size() / 64;
  std::array<std::uint32_t, 8> words{};
  if (hardware && !integrity::detail::compress_hardware(words, bytes.data(), 0))
    state.SkipWithError("CPUID lacks the SHA extensions (sha, ssse3, sse4.1)");
  for (auto _ : state) {
    if (hardware)
      integrity::detail::compress_hardware(words, bytes.data(), blocks);
    else
      integrity::detail::compress_portable(words, bytes.data(), blocks);
    benchmark::DoNotOptimize(words.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(blocks * 64));
}
BENCHMARK_CAPTURE(bench_sha256_blocks, portable, false);
BENCHMARK_CAPTURE(bench_sha256_blocks, hardware, true);

static void bench_cache_access(benchmark::State& state) {
  sim::Cache cache(sim::CacheConfig{.name = "bench-llc",
                                    .size_bytes = 1 << 20,
                                    .line_bytes = 64,
                                    .associativity = 16});
  util::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(rng.next_below(8u << 20)));
  }
}
BENCHMARK(bench_cache_access);

BENCHMARK_MAIN();
