#include "obs/metrics.hpp"

#include <algorithm>

#include "obs/clock.hpp"
#include "obs/json.hpp"
#include "util/table.hpp"

namespace drlhmd::obs {

std::string metric_key(const std::string& name, const Labels& labels) {
  if (labels.empty()) return name;
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string key = name;
  key += '{';
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i) key += ',';
    key += sorted[i].first;
    key += '=';
    key += sorted[i].second;
  }
  key += '}';
  return key;
}

// ---------------------------------------------------------------------------
// Registry.

Counter& MetricsRegistry::counter(const std::string& name, const Labels& labels) {
  const std::string key = metric_key(name, labels);
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(key);
  if (it == counters_.end()) {
    it = counters_.emplace(key, Entry<Counter>{name, labels,
                                               std::make_unique<Counter>()})
             .first;
  }
  return *it->second.metric;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const Labels& labels) {
  const std::string key = metric_key(name, labels);
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(key);
  if (it == gauges_.end()) {
    it = gauges_.emplace(key, Entry<Gauge>{name, labels, std::make_unique<Gauge>()})
             .first;
  }
  return *it->second.metric;
}

ShardedTailHistogram& MetricsRegistry::tail(const std::string& name,
                                            const Labels& labels) {
  const std::string key = metric_key(name, labels);
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = tails_.find(key);
  if (it == tails_.end()) {
    it = tails_
             .emplace(key, Entry<ShardedTailHistogram>{
                               name, labels,
                               std::make_unique<ShardedTailHistogram>()})
             .first;
  }
  return *it->second.metric;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.captured_us = now_us_since_epoch();
  snap.counters.reserve(counters_.size());
  for (const auto& [key, entry] : counters_)
    snap.counters.push_back({entry.name, entry.labels, entry.metric->value()});
  snap.gauges.reserve(gauges_.size());
  for (const auto& [key, entry] : gauges_)
    snap.gauges.push_back({entry.name, entry.labels, entry.metric->value()});
  snap.tails.reserve(tails_.size());
  for (const auto& [key, entry] : tails_)
    snap.tails.push_back({entry.name, entry.labels, entry.metric->snapshot()});
  return snap;
}

std::size_t MetricsRegistry::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return counters_.size() + gauges_.size() + tails_.size();
}

void MetricsRegistry::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  gauges_.clear();
  tails_.clear();
}

void MetricsRegistry::reset_recorders() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, entry] : tails_) entry.metric->reset();
}

// ---------------------------------------------------------------------------
// Snapshot rendering.

namespace {

void write_labels(JsonWriter& w, const Labels& labels) {
  w.key("labels").begin_object();
  for (const auto& [k, v] : labels) w.kv(k, std::string_view(v));
  w.end_object();
}

std::string labels_text(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i) out += ',';
    out += labels[i].first + "=" + labels[i].second;
  }
  out += '}';
  return out;
}

template <typename Sample>
const Sample* find_sample(const std::vector<Sample>& samples,
                          const std::string& name, const Labels& labels) {
  const std::string key = metric_key(name, labels);
  for (const auto& s : samples)
    if (metric_key(s.name, s.labels) == key) return &s;
  return nullptr;
}

}  // namespace

std::string MetricsSnapshot::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.kv("captured_us", captured_us);
  w.key("counters").begin_array();
  for (const auto& c : counters) {
    w.begin_object().kv("name", std::string_view(c.name));
    write_labels(w, c.labels);
    w.kv("value", c.value).end_object();
  }
  w.end_array();
  w.key("gauges").begin_array();
  for (const auto& g : gauges) {
    w.begin_object().kv("name", std::string_view(g.name));
    write_labels(w, g.labels);
    w.kv("value", g.value).end_object();
  }
  w.end_array();
  w.key("tails").begin_array();
  for (const auto& t : tails) {
    w.begin_object().kv("name", std::string_view(t.name));
    write_labels(w, t.labels);
    w.kv("count", t.data.count)
        .kv("dropped", t.data.dropped)
        .kv("saturated", t.data.saturated)
        .kv("sum", t.data.sum)
        .kv("min", t.data.min)
        .kv("max", t.data.max)
        .kv("mean", t.data.mean())
        .kv("p50", t.data.p50)
        .kv("p90", t.data.p90)
        .kv("p99", t.data.p99)
        .kv("p999", t.data.p999)
        .kv("p9999", t.data.p9999)
        .end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string MetricsSnapshot::to_table() const {
  std::string out;
  if (!counters.empty() || !gauges.empty()) {
    util::Table table({"metric", "type", "value"});
    for (const auto& c : counters)
      table.add_row({c.name + labels_text(c.labels), "counter",
                     std::to_string(c.value)});
    for (const auto& g : gauges)
      table.add_row({g.name + labels_text(g.labels), "gauge",
                     util::Table::fmt(g.value, 4)});
    out += table.to_string();
  }
  if (!tails.empty()) {
    util::Table table(
        {"tail", "count", "mean", "p50", "p90", "p99", "p999", "max"});
    for (const auto& t : tails)
      table.add_row({t.name + labels_text(t.labels),
                     std::to_string(t.data.count),
                     util::Table::fmt(t.data.mean(), 2),
                     util::Table::fmt(t.data.p50, 2),
                     util::Table::fmt(t.data.p90, 2),
                     util::Table::fmt(t.data.p99, 2),
                     util::Table::fmt(t.data.p999, 2),
                     util::Table::fmt(t.data.max, 2)});
    out += table.to_string();
  }
  return out;
}

const CounterSample* MetricsSnapshot::find_counter(const std::string& name,
                                                   const Labels& labels) const {
  return find_sample(counters, name, labels);
}
const GaugeSample* MetricsSnapshot::find_gauge(const std::string& name,
                                               const Labels& labels) const {
  return find_sample(gauges, name, labels);
}
const TailSample* MetricsSnapshot::find_tail(const std::string& name,
                                             const Labels& labels) const {
  return find_sample(tails, name, labels);
}

}  // namespace drlhmd::obs
