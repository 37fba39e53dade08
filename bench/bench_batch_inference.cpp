// Per-sample inference cost: columnar batch path vs per-row path.
//
// For each of the six detectors, times (a) the legacy row loop —
// predict_proba(row) over materialized row vectors — and (b) one
// predict_proba_batch call over the dataset's zero-copy view, and reports
// nanoseconds per sample plus the batch speedup.  The two paths are bitwise
// identical by construction (see tests/batch), so this measures pure
// mechanical win: no per-row virtual dispatch or row gather, the shared-
// encode cut-index kernel (ForestKernel) for the tree detectors,
// whole-batch matmuls for the neural models.  Emits BENCH_batch.json (drlhmd-bench/1 schema) as the
// last stdout line, which is what the benchdiff regression gate consumes.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "ml/model_zoo.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace drlhmd;

namespace {

/// Two overlapping Gaussian blobs in 4-D (the engineered feature width).
ml::Dataset blobs(std::size_t n_per_class, std::uint64_t seed) {
  util::Rng rng(seed);
  ml::Dataset d;
  for (std::size_t i = 0; i < n_per_class; ++i) {
    std::vector<double> benign(4), malware(4);
    for (std::size_t c = 0; c < 4; ++c) {
      benign[c] = rng.normal(0.0, 1.0);
      malware[c] = rng.normal(1.5, 1.1);
    }
    d.push(std::move(benign), 0);
    d.push(std::move(malware), 1);
  }
  d.shuffle(rng);
  return d;
}

using bench::best_seconds;

}  // namespace

int main(int argc, char** argv) {
  bench::apply_bench_cli(argc, argv);
  const ml::Dataset train = blobs(400, 71);
  const ml::Dataset test = blobs(4000, 72);
  const std::size_t n = test.size();

  // Row path input: rows materialized up front so the row loop pays only
  // what it always paid (virtual call + row scan), not the gather.
  const std::vector<std::vector<double>> rows = test.rows_copy();

  util::Table table(
      {"model", "row ns/sample", "batch ns/sample", "batch speedup"});
  bench::BenchWriter json("batch_inference");
  json.context("test_rows", static_cast<std::uint64_t>(n));
  json.context("features", static_cast<std::uint64_t>(test.num_features()));
  json.context("build_type", std::string(bench::build_type()));
  json.context("threads",
               static_cast<std::uint64_t>(util::parallel_thread_count()));
  bench::warn_if_debug_build();

  double sink = 0.0;  // defeat dead-code elimination
  for (const auto kind :
       {ml::ModelKind::kRf, ml::ModelKind::kDt, ml::ModelKind::kLr,
        ml::ModelKind::kMlp, ml::ModelKind::kLightGbm, ml::ModelKind::kNn}) {
    auto model = ml::make_model(kind);
    model->fit(train);

    std::vector<double> scores(n);
    const double row_s = best_seconds([&] {
      for (std::size_t i = 0; i < n; ++i)
        scores[i] = model->predict_proba(rows[i]);
    });
    sink += scores[n / 2];
    const double batch_s = best_seconds(
        [&] { model->predict_proba_batch(test.view(), scores); });
    sink += scores[n / 2];

    const double row_ns = 1e9 * row_s / static_cast<double>(n);
    const double batch_ns = 1e9 * batch_s / static_cast<double>(n);
    const double speedup = batch_ns > 0.0 ? row_ns / batch_ns : 0.0;
    table.add_row({model->name(), util::Table::fmt(row_ns, 1),
                   util::Table::fmt(batch_ns, 1),
                   util::Table::fmt(speedup, 2)});
    std::fprintf(stderr, "[batch] %-8s row=%.1fns batch=%.1fns x%.2f\n",
                 model->name().c_str(), row_ns, batch_ns, speedup);

    json.metric(model->name() + ".row_ns_per_sample", row_ns, "ns", false);
    json.metric(model->name() + ".batch_ns_per_sample", batch_ns, "ns", false);
    json.metric(model->name() + ".batch_speedup", speedup, "x", true);
  }

  std::printf("%s\n%s\n", table.to_string().c_str(), json.str().c_str());
  return sink == -1.0 ? 1 : 0;
}
