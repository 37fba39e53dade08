#include "open_loop.hpp"

#include <chrono>
#include <exception>
#include <queue>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "util/rng.hpp"

namespace drlhmd::bench {

namespace {

/// Sample `seq` of `host` carries pool row `key % pool_rows`.
std::uint64_t sample_key(std::uint64_t seed, std::uint32_t host,
                         std::uint32_t seq) {
  return util::splitmix64(
      seed ^ util::splitmix64((static_cast<std::uint64_t>(host) << 32) | seq));
}

/// One request in 256 is traced; the choice is a pure function of the key,
/// so producer and collector agree without sharing state.
bool sampled(std::uint64_t key) { return ((key >> 40) & 0xFF) == 0; }

/// Flow ids with the top bit set never collide with the tracer's own
/// sequential ids (used by parallel-region fork/join flows).
std::uint64_t flow_id(std::uint32_t host, std::uint32_t seq) {
  return (std::uint64_t{1} << 63) | (static_cast<std::uint64_t>(host) << 32) |
         seq;
}

struct Arrival {
  std::uint64_t tick_ns = 0;
  std::uint32_t host = 0;
  bool operator>(const Arrival& other) const { return tick_ns > other.tick_ns; }
};

/// Sleep coarsely, then yield, until the scheduled tick; return at once
/// when already late, so the schedule never bends to a slow server.
void wait_until(std::uint64_t tick_ns) {
  for (;;) {
    const std::uint64_t now = serve::now_ns();
    if (now >= tick_ns) return;
    const std::uint64_t ahead = tick_ns - now;
    if (ahead > 200'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(ahead - 100'000));
    } else {
      std::this_thread::yield();
    }
  }
}

double ns_to_us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }

}  // namespace

OpenLoopReport run_open_loop(serve::DetectionServer& server, ml::BatchView pool,
                             const Oracle& oracle, const Traffic& traffic,
                             obs::Tracer* tracer) {
  const std::size_t hosts = server.config().hosts;
  const std::size_t pool_rows = pool.rows();
  const double per_host_rate = traffic.rate_per_s / static_cast<double>(hosts);
  OpenLoopReport report;
  std::vector<std::uint32_t> next_seq(hosts, 0);

  server.start();
  // A short lead so the first arrivals are not late by construction.
  const std::uint64_t start_tick = serve::now_ns() + 1'000'000;
  const std::uint64_t measure_tick =
      start_tick + static_cast<std::uint64_t>(traffic.warmup_s * 1e9);
  const std::uint64_t end_tick =
      measure_tick + static_cast<std::uint64_t>(traffic.measure_s * 1e9);

  // ---- collector: single consumer of every completion queue. ----------
  // jthreads: on any exit path their destructors stop and join them before
  // the state they capture goes away.
  std::exception_ptr collector_error;
  std::exception_ptr producer_error;
  std::vector<std::uint64_t> delivered_per_host(hosts, 0);
  std::jthread collector([&](std::stop_token stop) {
    try {
      std::vector<std::int64_t> last_seq(hosts, -1);
      serve::VerdictRecord rec;
      bool final_sweep = false;
      for (;;) {
        // Checked before sweeping: every verdict published before the stop
        // request is caught by the last pass.
        if (stop.stop_requested()) final_sweep = true;
        bool any = false;
        for (std::uint32_t h = 0; h < hosts; ++h) {
          while (server.try_pop_verdict(h, rec)) {
            any = true;
            ++report.delivered;
            ++delivered_per_host[h];
            if (static_cast<std::int64_t>(rec.seq) <= last_seq[h])
              ++report.seq_errors;
            last_seq[h] = rec.seq;
            const std::uint64_t key = sample_key(traffic.seed, h, rec.seq);
            const core::TrafficVerdict want = oracle.expected[key % pool_rows];
            const bool correct =
                oracle.flag_only
                    ? (rec.verdict == core::TrafficVerdict::kAdversarialMalware) ==
                          (want == core::TrafficVerdict::kAdversarialMalware)
                    : rec.verdict == want;
            if (!correct) ++report.wrong;
            const double e2e_us =
                rec.verdict_tick_ns >= rec.enqueue_tick_ns
                    ? ns_to_us(rec.verdict_tick_ns - rec.enqueue_tick_ns)
                    : 0.0;
            if (rec.enqueue_tick_ns >= measure_tick) {
              report.e2e_us.observe(e2e_us);
              if (correct && e2e_us <= kSloUs) ++report.slo_met;
            }
            if (tracer != nullptr && sampled(key)) {
              tracer->complete_event(
                  "request " + std::to_string(h) + ":" + std::to_string(rec.seq),
                  "request", ns_to_us(rec.enqueue_tick_ns), e2e_us,
                  flow_id(h, rec.seq));
            }
          }
        }
        if (final_sweep) break;
        if (!any) std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    } catch (...) {
      collector_error = std::current_exception();
    }
  });

  // ---- producer: Poisson arrivals per host, stamped with the schedule. --
  std::jthread producer([&] {
    try {
      util::Rng rng(util::splitmix64(traffic.seed));
      std::vector<double> row(pool.cols());
      std::priority_queue<Arrival, std::vector<Arrival>, std::greater<>> heap;
      for (std::uint32_t h = 0; h < hosts; ++h)
        heap.push({start_tick + static_cast<std::uint64_t>(
                                    rng.exponential(per_host_rate) * 1e9),
                   h});
      while (heap.top().tick_ns < end_tick) {
        Arrival next = heap.top();
        heap.pop();
        wait_until(next.tick_ns);
        const std::uint64_t now = serve::now_ns();
        const bool measured = next.tick_ns >= measure_tick;
        if (measured) report.lag_us.observe(ns_to_us(now - next.tick_ns));

        const std::uint32_t seq = next_seq[next.host]++;
        const std::uint64_t key = sample_key(traffic.seed, next.host, seq);
        pool.gather_row(key % pool_rows, row);
        serve::DetectionServer::EnqueueResult result;
        if (tracer != nullptr) {
          const std::uint64_t t0 = serve::now_ns();
          result = server.try_enqueue(next.host, row, next.tick_ns);
          const std::uint64_t t1 = serve::now_ns();
          report.enqueue_us.observe(ns_to_us(t1 - t0));
          if (sampled(key))
            tracer->complete_event("serve.try_enqueue", "serve", ns_to_us(t0),
                                   ns_to_us(t1 - t0), flow_id(next.host, seq));
        } else {
          result = server.try_enqueue(next.host, row, next.tick_ns);
        }
        if (result.seq != seq) ++report.seq_errors;
        ++report.attempted;
        if (measured) ++report.measured_attempted;
        if (!result.accepted) ++report.dropped;

        next.tick_ns += static_cast<std::uint64_t>(
            rng.exponential(per_host_rate) * 1e9);
        heap.push(next);
      }
    } catch (...) {
      producer_error = std::current_exception();
    }
  });
  producer.join();

  // ---- drain: every accepted sample gets its verdict, or we time out. --
  const std::uint64_t deadline = serve::now_ns() + 30'000'000'000ULL;
  for (;;) {
    const serve::ServeStats s = server.stats();
    if (s.scored >= s.enqueued) {
      report.drained = true;
      break;
    }
    if (serve::now_ns() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.stop();
  collector.request_stop();
  collector.join();
  if (producer_error) std::rethrow_exception(producer_error);
  if (collector_error) std::rethrow_exception(collector_error);

  // Sequence numbers are burned on drops, so a host's gaps must equal its
  // drop count, and the server must have stamped what the producer sent.
  for (std::uint32_t h = 0; h < hosts; ++h) {
    const serve::HostSessionSnapshot s = server.session(h);
    if (s.next_seq != next_seq[h] ||
        s.dropped + delivered_per_host[h] != next_seq[h])
      ++report.session_errors;
  }
  return report;
}

}  // namespace drlhmd::bench
