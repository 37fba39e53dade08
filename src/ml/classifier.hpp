// Common binary-classifier interface.
//
// Every detector in the framework (RF, DT, LR, MLP, LightGBM-style GBDT,
// conv NN) implements this.  Scores are P(malware); hard predictions
// threshold at 0.5.  serialize() provides both the persistent format and
// the memory-footprint measure the constraint-aware controller uses.
//
// The interface is batch-first: predict_proba_batch(BatchView, out) is the
// hot path, fed zero-copy from columnar storage, and every detector
// overrides it with a vectorized implementation (the cut-index ForestKernel
// for RF/DT/GBDT, a column sweep for LR, block-batched infer_rows for
// MLP/NN) that is bit-for-bit
// identical to scoring the rows one at a time.  predict_proba(span) is the
// single-row compatibility adapter and the oracle the parity tests use.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/feature_matrix.hpp"
#include "ml/metrics.hpp"
#include "util/serialize.hpp"

namespace drlhmd::ml {

class DataSource;

class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Train on the dataset (labels 0/1). Implementations must be
  /// deterministic given their construction-time seed.
  virtual void fit(const Dataset& train) = 0;

  /// Train from a sharded/out-of-core source.  The streaming detectors
  /// (DT/RF/GBDT/MLP/NN) override this with shard-by-shard implementations
  /// and route fit(Dataset) through it via the single-shard adapter, so the
  /// two entry points share one code path and produce identical models.
  /// The default materializes the source (correct for any detector, in-RAM).
  virtual void fit_stream(const DataSource& train);

  /// P(label == 1) for one sample (row adapter over the batch path's
  /// math; kept virtual so detectors can score a single row without
  /// batch-view plumbing).
  virtual double predict_proba(std::span<const double> features) const = 0;

  int predict(std::span<const double> features) const {
    return predict_proba(features) >= 0.5 ? 1 : 0;
  }

  /// Batch-first scoring: out[i] = P(label == 1 | batch row i).
  /// `out.size()` must equal `batch.rows()`.  The default walks rows
  /// through predict_proba(); detectors override it with vectorized
  /// implementations that produce bitwise-identical scores.
  virtual void predict_proba_batch(BatchView batch,
                                   std::span<double> out) const;

  /// Alias of predict_proba_batch for callers of the former separate
  /// "fast" contract (drlhmd_bench/drlhmd_bench.cpp).  predict_proba_batch
  /// is both the fastest path and bitwise exact; new code calls it.
  void predict_proba_batch_fast(BatchView batch, std::span<double> out) const {
    predict_proba_batch(batch, out);
  }

  std::vector<double> predict_proba_batch(BatchView batch) const;
  /// Zero-copy over the dataset's columnar storage.
  std::vector<double> predict_proba_batch(const Dataset& data) const;
  std::vector<int> predict_batch(const Dataset& data) const;

  /// Evaluate on a labeled dataset (scores -> full metric report).
  /// Routed through the batch path.
  MetricReport evaluate(const Dataset& data) const;

  /// Short identifier: "RF", "DT", "LR", "MLP", "LightGBM", "NN".
  virtual std::string name() const = 0;

  /// Model bytes; used for integrity hashing and memory-footprint metrics.
  virtual std::vector<std::uint8_t> serialize() const = 0;

  /// Untrained copy with identical hyperparameters (and seed), for
  /// retraining pipelines such as adversarial training.
  virtual std::unique_ptr<Classifier> clone_untrained() const = 0;

  virtual bool trained() const = 0;

 protected:
  /// Shared argument check for batch overrides.
  void check_batch_out(BatchView batch, std::span<const double> out) const;
};

}  // namespace drlhmd::ml
