#include "core/runtime.hpp"

#include <stdexcept>

#include "obs/log.hpp"
#include "obs/telemetry.hpp"
#include "util/arena.hpp"
#include "util/parallel.hpp"

namespace drlhmd::core {

std::string verdict_name(TrafficVerdict verdict) {
  switch (verdict) {
    case TrafficVerdict::kBenign: return "benign";
    case TrafficVerdict::kMalware: return "malware";
    case TrafficVerdict::kAdversarialMalware: return "adversarial-malware";
    case TrafficVerdict::kDropped: return "dropped";
  }
  throw std::invalid_argument("verdict_name: bad verdict");
}

DetectionRuntime::DetectionRuntime(Framework& framework, RuntimeConfig config)
    : framework_(framework),
      config_(config),
      registry_(config.registry != nullptr ? config.registry : &local_registry_) {
  // Deployment prerequisites: the pipeline must be fully trained.
  (void)framework_.predictor();
  (void)framework_.controller(config_.policy);

  obs::MetricsRegistry& reg = *registry_;
  processed_ = &reg.counter("drlhmd.runtime.processed");
  benign_ = &reg.counter("drlhmd.runtime.verdicts", {{"verdict", "benign"}});
  malware_ = &reg.counter("drlhmd.runtime.verdicts", {{"verdict", "malware"}});
  adversarial_ =
      &reg.counter("drlhmd.runtime.verdicts", {{"verdict", "adversarial"}});
  retrains_ = &reg.counter("drlhmd.runtime.retrains");
  integrity_checks_ = &reg.counter("drlhmd.runtime.integrity.checks");
  integrity_alarms_ = &reg.counter("drlhmd.runtime.integrity.alarms");
  quarantine_gauge_ = &reg.gauge("drlhmd.runtime.quarantine_size");
  retrain_gauge_ = &reg.gauge("drlhmd.runtime.retrain_count");
  tail_predictor_ =
      &reg.tail("drlhmd.runtime.stage_tail_us", {{"stage", "predictor"}});
  tail_detector_ =
      &reg.tail("drlhmd.runtime.stage_tail_us", {{"stage", "detector"}});
  tail_integrity_ =
      &reg.tail("drlhmd.runtime.stage_tail_us", {{"stage", "integrity"}});
  tail_batch_ = &reg.tail("drlhmd.runtime.batch_tail_us");
}

RuntimeStats DetectionRuntime::stats() const {
  RuntimeStats stats;
  stats.processed = processed_->value();
  stats.benign = benign_->value();
  stats.malware = malware_->value();
  stats.adversarial = adversarial_->value();
  stats.retrains = retrains_->value();
  stats.integrity_checks = integrity_checks_->value();
  stats.integrity_alarms = integrity_alarms_->value();
  return stats;
}

bool DetectionRuntime::maybe_retrain() {
  if (config_.retrain_threshold == 0) return false;
  if (quarantine_.size() < config_.retrain_threshold) return false;
  DRLHMD_LOG(Info) << "adaptive retrain: folding " << quarantine_.size()
                   << " quarantined adversarial samples into the merged DB";
  framework_.incremental_defense_update(quarantine_);
  quarantine_ = ml::Dataset{};
  quarantine_gauge_->set(0.0);
  retrains_->inc();
  retrain_gauge_->set(static_cast<double>(retrains_->value()));
  return true;
}

void DetectionRuntime::maybe_validate_integrity() {
  if (config_.integrity_check_period == 0) return;
  if (processed_->value() % config_.integrity_check_period == 0)
    validate_integrity();
}

bool DetectionRuntime::validate_integrity() {
  const obs::ScopedLatency t(obs::Telemetry::enabled() ? tail_integrity_
                                                      : nullptr);
  integrity_checks_->inc();
  bool all_intact = true;
  for (const auto& model : framework_.defended_models()) {
    const auto status =
        framework_.vault().verify(model->name(), model->serialize());
    if (status != integrity::VerificationStatus::kIntact) {
      all_intact = false;
      integrity_alarms_->inc();
      DRLHMD_LOG(Warn) << "integrity alarm: model '" << model->name()
                       << "' bytes deviate from the vault record";
    }
  }
  return all_intact;
}

BatchOutcome DetectionRuntime::process_batch(ml::BatchView batch,
                                             std::span<TrafficVerdict> out) {
  if (out.size() != batch.rows())
    throw std::invalid_argument(
        "DetectionRuntime::process_batch: out size mismatch");
  // Telemetry is read once per batch.  When it is off, no stage reads a
  // clock or touches a recorder; when it is on, the same code runs and the
  // per-thread, wait-free tail shards record from inside the region.
  const bool timed = obs::Telemetry::enabled();
  obs::ShardedTailHistogram* const predictor_tail =
      timed ? tail_predictor_ : nullptr;
  obs::ShardedTailHistogram* const detector_tail =
      timed ? tail_detector_ : nullptr;
  const obs::ScopedLatency batch_timer(timed ? tail_batch_ : nullptr);
  // All scoring scratch is arena-backed: a warmed-up runtime allocates
  // nothing on this path (the quarantine push below only allocates while
  // its ring grows toward the retrain threshold).
  util::ArenaScope scope(util::scratch_arena());
  auto row = scope.alloc<double>(batch.cols());
  BatchOutcome outcome;
  std::size_t start = 0;
  while (start < batch.rows()) {
    // Speculatively score every remaining row against the currently
    // deployed (frozen) models.  Both stages are const and cache-free, so
    // concurrent scoring matches what the sequential loop would compute.
    // The stages are fused per chunk: each worker runs the predictor's
    // critic and the scheduled detector back to back on its zero-copy row
    // slice, so predictor and detector work overlap across chunks with no
    // barrier in between.  Detector routing is computed for flagged rows
    // too — it is pure and the commit loop simply ignores those slots.
    const auto& predictor = framework_.predictor();
    const auto& controller = framework_.controller(config_.policy);
    const std::size_t pending = batch.rows() - start;
    const ml::BatchView remaining = batch.rows_slice(start, pending);
    auto flagged = scope.alloc<std::uint8_t>(pending);
    auto predictions = scope.alloc<int>(pending);
    util::parallel_for_chunks(
        "runtime.batch_score", std::size_t{0}, pending, 0,
        [&](std::size_t, std::size_t begin, std::size_t end) {
          const ml::BatchView rows = remaining.rows_slice(begin, end - begin);
          {
            const obs::ScopedLatency t(predictor_tail);
            predictor.is_adversarial_batch(
                rows,
                std::span<std::uint8_t>(flagged.data() + begin, end - begin));
          }
          const obs::ScopedLatency t(detector_tail);
          controller.predict_batch(
              rows, std::span<int>(predictions.data() + begin, end - begin));
        });

    // Serial commit in row order.  When a retrain swaps the deployed
    // models, the speculative scores for the rows after it are stale —
    // break out and re-score the remainder.
    std::size_t i = start;
    for (; i < batch.rows(); ++i) {
      processed_->inc();
      bool retrained = false;
      if (flagged[i - start] != 0) {
        adversarial_->inc();
        ++outcome.adversarial;
        out[i] = TrafficVerdict::kAdversarialMalware;
        // Adversarial vectors are malware masquerading as benign: label and
        // quarantine them for the next adversarial-training round.
        batch.gather_row(i, {row.data(), row.size()});
        quarantine_.push({row.data(), row.size()}, 1);
        quarantine_gauge_->set(static_cast<double>(quarantine_.size()));
        retrained = maybe_retrain();
      } else if (predictions[i - start] == 1) {
        malware_->inc();
        ++outcome.malware;
        out[i] = TrafficVerdict::kMalware;
      } else {
        benign_->inc();
        ++outcome.benign;
        out[i] = TrafficVerdict::kBenign;
      }
      maybe_validate_integrity();
      if (retrained) {
        ++outcome.retrains;
        ++i;
        break;
      }
    }
    start = i;
  }
  return outcome;
}

std::vector<TrafficVerdict> DetectionRuntime::process_batch(ml::BatchView batch) {
  std::vector<TrafficVerdict> verdicts(batch.rows());
  process_batch(batch, verdicts);
  return verdicts;
}

TrafficVerdict DetectionRuntime::process(std::span<const double> features) {
  TrafficVerdict verdict;
  process_batch(ml::BatchView(features.data(), 1, features.size(), 1),
                std::span<TrafficVerdict>(&verdict, 1));
  return verdict;
}

ml::MetricReport DetectionRuntime::process_stream(const ml::Dataset& stream) {
  stream.validate();
  const std::vector<TrafficVerdict> verdicts = process_batch(stream.X.view());
  std::vector<int> predictions;
  predictions.reserve(verdicts.size());
  for (const TrafficVerdict verdict : verdicts)
    predictions.push_back(verdict == TrafficVerdict::kBenign ? 0 : 1);
  return ml::evaluate_predictions(stream.y, predictions);
}

ColdStart cold_start(const std::string& checkpoint_dir, RuntimeConfig config) {
  ColdStart out;
  out.framework =
      std::make_unique<Framework>(Framework::resume(checkpoint_dir));
  if (!out.framework->phase_done(Phase::kProtect))
    throw std::runtime_error(
        "cold_start: checkpoint has not completed the protect phase — run "
        "the pipeline (or resume + run_all) to deployment before serving");
  out.runtime = std::make_unique<DetectionRuntime>(*out.framework, config);
  return out;
}

}  // namespace drlhmd::core
