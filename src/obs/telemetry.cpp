#include "obs/telemetry.hpp"

#include <cstdlib>
#include <string>

#include "obs/clock.hpp"
#include "obs/trace_export.hpp"
#include "util/arena.hpp"
#include "util/parallel.hpp"

namespace drlhmd::obs {
namespace {

/// Bridges util's parallel regions into the telemetry layer: every labeled
/// top-level region bumps drlhmd.parallel.* metrics and opens a span
/// ("parallel.<label>", category "parallel") for the duration of the
/// region; each chunk that runs under it records into the exact
/// drlhmd.parallel.chunk_us tail histogram and appends a complete trace
/// event carrying the region's flow id, so exported traces draw fork/join
/// arrows from the region span to its chunks.  Installed once, the first
/// time telemetry is enabled; each callback checks the enabled flag so
/// disabled runs pay one branch per region.
class ParallelTelemetryBridge final : public util::ParallelObserver {
 public:
  struct RegionToken {
    Span span;
    std::string label;
    ShardedTailHistogram* chunk_tail = nullptr;
    std::uint64_t flow_id = 0;
  };

  void* region_begin(const char* label, std::size_t n_chunks,
                     std::size_t n_threads) override {
    if (!Telemetry::enabled()) return nullptr;
    MetricsRegistry& reg = Telemetry::metrics();
    const Labels labels = {{"label", label}};
    reg.counter("drlhmd.parallel.regions", labels).inc();
    reg.counter("drlhmd.parallel.chunks", labels).inc(n_chunks);
    reg.gauge("drlhmd.parallel.pool_size")
        .set(static_cast<double>(n_threads));
    reg.gauge("drlhmd.parallel.region_chunks", labels)
        .set(static_cast<double>(n_chunks));

    Tracer& tracer = Telemetry::tracer();
    const std::uint64_t flow = tracer.next_flow_id();
    auto* token = new RegionToken;
    token->label = label;
    token->chunk_tail = &reg.tail("drlhmd.parallel.chunk_us", labels);
    token->flow_id = flow;
    token->span =
        tracer.span(std::string("parallel.") + label, "parallel", flow);
    return token;
  }

  void chunk_done(void* token, std::size_t chunk_index,
                  double duration_us) override {
    auto* region = static_cast<RegionToken*>(token);
    region->chunk_tail->observe(duration_us);
    const double end_us = now_us_since_epoch();
    Telemetry::tracer().complete_event(
        region->label + ".chunk" + std::to_string(chunk_index), "parallel",
        end_us - duration_us, duration_us, region->flow_id);
  }

  void region_end(void* token) override {
    delete static_cast<RegionToken*>(token);  // closes the span
  }
};

/// DRLHMD_TRACE_FILE support: enables telemetry at static-init time and
/// exports the global tracer as Chrome trace JSON at process exit.  The
/// tracer/registry singletons are intentionally leaked (see below), so the
/// export in this destructor can never use a destroyed object.
class EnvTraceExporter {
 public:
  EnvTraceExporter() {
    if (const char* path = std::getenv("DRLHMD_TRACE_FILE")) {
      if (path[0] != '\0') {
        path_ = path;
        Telemetry::set_enabled(true);
      }
    }
  }
  ~EnvTraceExporter() {
    if (!path_.empty()) write_chrome_trace_file(Telemetry::tracer(), path_);
  }

 private:
  std::string path_;
};

EnvTraceExporter g_env_trace_exporter;

}  // namespace

std::atomic<bool>& Telemetry::enabled_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}

// Deliberately leaked: EnvTraceExporter (and any other static-destruction
// user) must be able to read the tracer after main() returns, regardless
// of TU destruction order.
MetricsRegistry& Telemetry::metrics() {
  static MetricsRegistry* registry = new MetricsRegistry;
  return *registry;
}

Tracer& Telemetry::tracer() {
  static Tracer* tracer = new Tracer;
  return *tracer;
}

void Telemetry::install_parallel_bridge() {
  static ParallelTelemetryBridge bridge;
  util::set_parallel_observer(&bridge);
}

void Telemetry::reset() {
  metrics().clear();
  tracer().clear();
}

void Telemetry::publish_arena_gauges() {
  const util::ArenaStats stats = util::arena_stats();
  MetricsRegistry& reg = metrics();
  reg.gauge("drlhmd.arena.arenas").set(static_cast<double>(stats.arenas));
  reg.gauge("drlhmd.arena.capacity_bytes")
      .set(static_cast<double>(stats.capacity_bytes));
  reg.gauge("drlhmd.arena.high_water_bytes")
      .set(static_cast<double>(stats.high_water_bytes));
  reg.gauge("drlhmd.arena.scope_reuses")
      .set(static_cast<double>(stats.scope_reuses));
  reg.gauge("drlhmd.arena.chunk_allocations")
      .set(static_cast<double>(stats.chunk_allocations));
}

}  // namespace drlhmd::obs
