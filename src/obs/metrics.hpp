// Thread-safe metrics registry: counters, gauges, and exact tail-latency
// histograms (obs::ShardedTailHistogram, the one latency recorder).
//
// Metrics are addressed by name + label set under the naming scheme
// `drlhmd.<layer>.<name>` (e.g. drlhmd.runtime.verdicts{verdict=benign}).
// Handles returned by the registry are stable for the registry's lifetime,
// so hot paths resolve a metric once and then pay one atomic op per update.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/tail_histogram.hpp"

namespace drlhmd::obs {

/// Label set: (key, value) pairs; order-insensitive for addressing.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Canonical metric identity, e.g. `name{k1=v1,k2=v2}` with sorted keys.
std::string metric_key(const std::string& name, const Labels& labels);

/// Monotonic counter.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-value gauge (set/add; doubles via CAS so writers may race).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

struct CounterSample {
  std::string name;
  Labels labels;
  std::uint64_t value = 0;
};
struct GaugeSample {
  std::string name;
  Labels labels;
  double value = 0.0;
};
struct TailSample {
  std::string name;
  Labels labels;
  TailHistogram::Snapshot data;
};

/// Point-in-time copy of every metric, sorted by canonical key.
struct MetricsSnapshot {
  /// Microseconds since the shared telemetry epoch when the snapshot was
  /// taken, so metric dumps line up with trace spans and log records.
  double captured_us = 0.0;
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<TailSample> tails;

  /// {"captured_us":..,"counters":[...],"gauges":[...],"tails":[...]}
  std::string to_json() const;
  /// Human-readable tables (counters+gauges, then the tail table).
  std::string to_table() const;

  const CounterSample* find_counter(const std::string& name,
                                    const Labels& labels = {}) const;
  const GaugeSample* find_gauge(const std::string& name,
                                const Labels& labels = {}) const;
  const TailSample* find_tail(const std::string& name,
                              const Labels& labels = {}) const;
};

/// Thread-safe registry.  Lookup takes a lock; returned references are
/// stable, so callers cache them for hot-path updates.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name, const Labels& labels = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {});
  /// Exact tail-latency histogram (sharded, wait-free observe).
  ShardedTailHistogram& tail(const std::string& name,
                             const Labels& labels = {});

  MetricsSnapshot snapshot() const;
  std::size_t size() const;
  void clear();
  /// Reset every tail recorder *in place*: counters and
  /// gauges keep their values, and — unlike clear() — every handle handed
  /// out stays valid.  This is how benches discard warmup-iteration
  /// latencies without invalidating the hot paths' cached pointers.
  /// Callers must quiesce concurrent recorders first (tail shards are
  /// zeroed with relaxed stores).
  void reset_recorders();

 private:
  template <typename T>
  struct Entry {
    std::string name;
    Labels labels;
    std::unique_ptr<T> metric;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry<Counter>> counters_;
  std::map<std::string, Entry<Gauge>> gauges_;
  std::map<std::string, Entry<ShardedTailHistogram>> tails_;
};

}  // namespace drlhmd::obs
