#include "serve/loadgen.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <queue>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/rng.hpp"

namespace drlhmd::serve {

namespace {

/// One scheduled arrival: min-heap orders by tick.
struct Arrival {
  std::uint64_t tick_ns = 0;
  std::uint32_t host = 0;
  bool operator>(const Arrival& other) const { return tick_ns > other.tick_ns; }
};

/// Sleep coarsely, then yield, until the scheduled tick.  When the producer
/// has fallen behind (tick already past) this returns immediately and the
/// sample goes out back-to-back — the open-loop schedule never slows down
/// because the server (or the producer) is slow.
void wait_until(std::uint64_t tick_ns) {
  for (;;) {
    const std::uint64_t now = now_ns();
    if (now >= tick_ns) return;
    const std::uint64_t ahead = tick_ns - now;
    if (ahead > 200'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(ahead - 100'000));
    } else {
      std::this_thread::yield();
    }
  }
}

}  // namespace

LoadPointReport run_open_loop(DetectionServer& server, ml::BatchView rows,
                              const LoadGenConfig& config) {
  if (rows.rows() == 0)
    throw std::invalid_argument("run_open_loop: empty row pool");
  if (rows.cols() != server.feature_width())
    throw std::invalid_argument("run_open_loop: row width mismatch");
  if (server.running())
    throw std::logic_error("run_open_loop: server already running");
  if (!(config.offered_per_sec > 0.0) || !(config.duration_s > 0.0))
    throw std::invalid_argument("run_open_loop: bad rate/duration");

  const std::size_t hosts = server.config().hosts;
  const std::size_t producers = std::max<std::size_t>(
      1, std::min(config.producers, hosts));
  const double per_host_rate =
      config.offered_per_sec / static_cast<double>(hosts);

  // Counters are cumulative registry state: a sweep reuses one server, so
  // every point reports deltas against its entry snapshot.
  const ServeStats base = server.stats();
  server.start();

  const std::uint64_t start_tick = now_ns();
  const std::uint64_t end_tick =
      start_tick + static_cast<std::uint64_t>(config.duration_s * 1e9);

  // ---- collector: the single consumer of every completion queue. -------
  std::atomic<bool> collector_stop{false};
  obs::TailHistogram e2e;
  std::uint64_t collected = 0;
  std::uint64_t last_verdict_tick = start_tick;
  std::thread collector([&] {
    VerdictRecord record;
    bool final_sweep = false;
    for (;;) {
      // Observe the stop flag *before* sweeping: everything published
      // before the flag was set is caught by this last pass.
      if (collector_stop.load(std::memory_order_acquire)) final_sweep = true;
      bool any = false;
      for (std::uint32_t h = 0; h < hosts; ++h) {
        while (server.try_pop_verdict(h, record)) {
          any = true;
          ++collected;
          if (record.verdict_tick_ns > last_verdict_tick)
            last_verdict_tick = record.verdict_tick_ns;
          e2e.observe(record.verdict_tick_ns >= record.enqueue_tick_ns
                          ? static_cast<double>(record.verdict_tick_ns -
                                                record.enqueue_tick_ns) /
                                1e3
                          : 0.0);
        }
      }
      if (final_sweep) break;
      if (!any)
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  // ---- producers: exponential inter-arrival per host, scheduled ticks. -
  std::vector<std::thread> producer_threads;
  producer_threads.reserve(producers);
  for (std::size_t p = 0; p < producers; ++p) {
    producer_threads.emplace_back([&, p] {
      util::Rng rng(util::splitmix64(config.seed ^ (p + 1)));
      std::vector<double> row(rows.cols());
      std::priority_queue<Arrival, std::vector<Arrival>, std::greater<>> heap;
      for (std::uint32_t h = static_cast<std::uint32_t>(p); h < hosts;
           h += static_cast<std::uint32_t>(producers)) {
        heap.push({start_tick + static_cast<std::uint64_t>(
                                    rng.exponential(per_host_rate) * 1e9),
                   h});
      }
      while (!heap.empty()) {
        Arrival next = heap.top();
        if (next.tick_ns >= end_tick) break;
        heap.pop();
        wait_until(next.tick_ns);
        const std::size_t r = rng.next_below(rows.rows());
        rows.gather_row(r, row);
        // The *scheduled* tick is the latency origin (coordinated-omission
        // safety) — not the instant the push actually happened.
        server.try_enqueue(next.host, row, next.tick_ns);
        next.tick_ns += static_cast<std::uint64_t>(
            rng.exponential(per_host_rate) * 1e9);
        heap.push(next);
      }
    });
  }
  for (auto& t : producer_threads) t.join();

  // ---- drain: every accepted sample gets its verdict (or we time out). -
  const std::uint64_t drain_deadline =
      now_ns() + static_cast<std::uint64_t>(config.drain_timeout_s * 1e9);
  bool drained = false;
  for (;;) {
    const ServeStats cur = server.stats();
    if (cur.scored - base.scored >= cur.enqueued - base.enqueued) {
      drained = true;
      break;
    }
    if (now_ns() >= drain_deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.stop();  // flushes anything still staged, then joins

  collector_stop.store(true, std::memory_order_release);
  collector.join();

  // ---- report. ---------------------------------------------------------
  const ServeStats cur = server.stats();
  LoadPointReport report;
  report.offered_per_sec = config.offered_per_sec;
  report.duration_s = config.duration_s;
  report.enqueued = cur.enqueued - base.enqueued;
  report.dropped = cur.dropped - base.dropped;
  report.attempted = report.enqueued + report.dropped;
  report.delivered = collected;
  report.drained = drained;
  report.wall_s =
      last_verdict_tick > start_tick
          ? static_cast<double>(last_verdict_tick - start_tick) / 1e9
          : config.duration_s;
  report.sustained_per_sec =
      report.wall_s > 0.0
          ? static_cast<double>(report.delivered) / report.wall_s
          : 0.0;
  if (report.attempted != 0) {
    report.drop_rate = static_cast<double>(report.dropped) /
                       static_cast<double>(report.attempted);
    report.delivered_ratio = static_cast<double>(report.delivered) /
                             static_cast<double>(report.attempted);
  }
  report.e2e_us = e2e.snapshot();
  return report;
}

}  // namespace drlhmd::serve
