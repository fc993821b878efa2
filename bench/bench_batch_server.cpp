// Batch-serving bench: the BatchServer's dynamic batching vs batch=1
// pass-through over the same EnginePool, under a Poisson open-loop load.
//
// Method: K client threads generate single-sequence requests (the
// Fig. 9 sequential-LSTM configuration: hidden 256, length-100 chains —
// the workload where coalescing pays hardest, since a lone sequence runs
// one-row "panels" (GEMVs) at every timestep while a coalesced batch
// runs them as wide panel GEMMs) with exponential interarrival times at
// a configured aggregate rate, submitting each to the server the moment
// its arrival clock fires (open loop: generation never waits for
// completions; a deep queue absorbs the backlog). The pass-through
// baseline (max_batch = 1, one dispatcher per pool worker) is first
// calibrated at saturation to find its capacity: the median of three
// saturation runs, since one run can read several times off on a busy
// host. The sweep then offers a multiple of that capacity to every
// configuration, so the coalescing configurations face the exact load
// that saturates the baseline. The wait=0us row is the server default
// (greedy: take what is queued, hold no window); the positive waits are
// opt-in coalescing windows.
//
// Reported per configuration: achieved throughput, mean/max coalesced
// batch size, p50/p99 end-to-end and p99 queue latency, and the
// batch-size histogram — the rows scripts/run_benches.sh wraps into
// BENCH_batch_server.json.
//
// Acceptance bar (ISSUE 9): >= 2x throughput over pass-through at the
// saturating Poisson rate for the best coalescing window.

#include <algorithm>
#include <cmath>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "exec/batch_server.hpp"
#include "support/clock.hpp"

using namespace cortex;

namespace {

struct LoadResult {
  exec::ServerMetrics metrics;
  exec::ServerHealth health;
  std::int64_t not_ok = 0;  ///< requests that resolved != kOk
};

/// Drives `server` open-loop: `clients` threads submit `total` requests
/// with exponential interarrivals at aggregate `rate_rps` (<= 0 =
/// saturation: no pacing), then all futures are joined.
LoadResult drive_poisson(exec::BatchServer& server,
                         const std::vector<std::unique_ptr<ds::Tree>>& trees,
                         int clients, double rate_rps) {
  const std::int64_t total = static_cast<std::int64_t>(trees.size());
  std::vector<std::int64_t> not_ok(static_cast<std::size_t>(clients), 0);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      // Per-client slice of the workload and of the aggregate rate.
      const double client_rate = rate_rps / clients;
      Rng rng(static_cast<std::uint64_t>(8191 + c));
      std::vector<std::future<exec::ServedResult>> futs;
      std::int64_t arrival_ns = support::monotonic_ns();
      for (std::int64_t i = c; i < total; i += clients) {
        if (rate_rps > 0) {
          // Exponential interarrival: -ln(1-U)/lambda, in ns.
          const double u = rng.next_float();
          arrival_ns += static_cast<std::int64_t>(
              -std::log(1.0 - static_cast<double>(u)) / client_rate * 1e9);
          std::this_thread::sleep_until(support::to_time_point(arrival_ns));
        }
        futs.push_back(
            server.submit(trees[static_cast<std::size_t>(i)].get()));
      }
      for (auto& f : futs)
        if (f.get().status != exec::RequestStatus::kOk)
          ++not_ok[static_cast<std::size_t>(c)];
    });
  }
  for (std::thread& t : threads) t.join();
  LoadResult out;
  out.metrics = server.metrics();
  out.health = server.health();
  for (const std::int64_t n : not_ok) out.not_ok += n;
  return out;
}

void print_hist(const std::vector<std::int64_t>& hist) {
  std::printf("    batch-size hist:");
  for (std::size_t k = 1; k < hist.size(); ++k)
    if (hist[k] > 0)
      std::printf(" %zu:%lld", k, static_cast<long long>(hist[k]));
  std::printf("\n");
}

}  // namespace

int main() {
  const bool smoke = bench::smoke_mode();
  const std::int64_t hidden = smoke ? 16 : 256;
  const std::int64_t seq_len = smoke ? 8 : 100;
  const std::int64_t total = smoke ? 48 : 512;
  const int clients = smoke ? 2 : 4;
  const int workers = smoke ? 2 : 4;
  const std::int64_t coalesce_batch = smoke ? 8 : 256;
  const std::vector<std::int64_t> waits_us =
      smoke ? std::vector<std::int64_t>{0}
            : std::vector<std::int64_t>{0, 1000, 5000};

  const models::ModelDef def = models::make_seq_lstm(hidden);
  Rng rng(71);
  const models::ModelParams params = models::init_params(def, rng);
  const runtime::DeviceSpec spec = runtime::DeviceSpec::v100_gpu();
  exec::EnginePool pool(def, params, ra::Schedule{}, spec,
                        exec::EnginePoolOptions{workers, 1, 1});

  Rng wrng(72);
  std::vector<std::unique_ptr<ds::Tree>> trees;
  trees.reserve(static_cast<std::size_t>(total));
  for (std::int64_t i = 0; i < total; ++i)
    trees.push_back(ds::make_chain_tree(seq_len, wrng));

  std::printf("Batch server: dynamic batching vs batch=1 pass-through "
              "(SeqLSTM, hidden %lld, %lld length-%lld requests, "
              "%d clients, %d pool workers)\n",
              static_cast<long long>(hidden), static_cast<long long>(total),
              static_cast<long long>(seq_len), clients, workers);

  // Open-loop queue: deep enough that generation never blocks, so the
  // offered rate is really offered (total < capacity).
  exec::BatchServerOptions base;
  base.queue_capacity = 4096;
  base.validate_on_submit = false;  // pre-validated workload; measure serving

  // Warmup: a short saturation burst so cold-start costs (workspace
  // growth, first-touch pages) are paid before anything is measured.
  exec::BatchServerOptions pass = base;
  pass.max_batch = 1;
  pass.max_wait_us = 0;
  pass.dispatchers = workers;  // one in-flight single request per worker
  {
    std::vector<std::unique_ptr<ds::Tree>> warm;
    for (std::int64_t i = 0; i < 2 * workers; ++i)
      warm.push_back(ds::make_chain_tree(seq_len, wrng));
    exec::BatchServer server(pool, pass);
    (void)drive_poisson(server, warm, clients, 0.0);
  }

  // -- calibrate: pass-through capacity at saturation, median of 3 -----------
  std::vector<double> capacities;
  for (int run = 0; run < 3; ++run) {
    exec::BatchServer server(pool, pass);
    const LoadResult r = drive_poisson(server, trees, clients, 0.0);
    if (r.not_ok > 0) return 1;
    capacities.push_back(r.metrics.throughput_rps);
  }
  std::printf("pass-through capacity (saturation): %.0f / %.0f / %.0f "
              "req/s",
              capacities[0], capacities[1], capacities[2]);
  std::sort(capacities.begin(), capacities.end());
  const double pass_capacity = capacities[1];
  std::printf(", median %.0f req/s\n", pass_capacity);
  // The sweep offers a fixed multiple of the baseline capacity: enough to
  // saturate pass-through with headroom for coalescing to show its gain.
  const double offered = 4.0 * pass_capacity;
  std::printf("offered Poisson rate for the sweep: %.0f req/s\n\n", offered);

  std::printf("%-34s %10s %8s %10s %10s %10s\n", "config", "ach rps",
              "mean B", "p50 e2e", "p99 e2e", "p99 queue");
  bench::print_rule(88);

  std::int64_t failures = 0;
  double pass_rps = 0.0, best_rps = 0.0;
  exec::ServerHealth last_health;
  for (int coalesce = 0; coalesce < 2; ++coalesce) {
    for (const std::int64_t wait_us : waits_us) {
      if (!coalesce && wait_us != waits_us.front()) continue;
      exec::BatchServerOptions opts = base;
      opts.max_batch = coalesce ? coalesce_batch : 1;
      opts.max_wait_us = coalesce ? wait_us : 0;
      opts.dispatchers = coalesce ? 2 : workers;
      const std::string label =
          coalesce ? "coalesced b<=" + std::to_string(coalesce_batch) +
                         " wait=" + std::to_string(wait_us) + "us" +
                         (wait_us == exec::BatchServer::default_max_wait_us()
                              ? " (default)"
                              : "")
                   : "pass-through b=1";

      exec::BatchServer server(pool, opts);
      const LoadResult r = drive_poisson(server, trees, clients, offered);
      failures += r.not_ok;
      last_health = r.health;
      const exec::ServerMetrics& m = r.metrics;
      std::printf("%-34s %10.0f %8.1f %8.2fms %8.2fms %8.2fms\n",
                  label.c_str(), m.throughput_rps, m.mean_batch_size,
                  m.e2e.p50_ns * 1e-6, m.e2e.p99_ns * 1e-6,
                  m.queue.p99_ns * 1e-6);
      print_hist(m.batch_size_hist);
      if (coalesce)
        best_rps = std::max(best_rps, m.throughput_rps);
      else
        pass_rps = m.throughput_rps;
    }
  }

  bench::print_rule(88);
  std::printf("all requests served ok: %s\n",
              failures == 0 ? "yes" : "NO — BUG");
  // Health snapshot of the last server: in a fault-free bench run every
  // degradation counter must read zero, so this line doubles as a cheap
  // end-to-end check of the graceful-degradation plumbing (and under a
  // CORTEX_FAULTS sweep in CI it shows what the stack absorbed).
  std::printf("server health: degraded=%s consec_failures=%lld "
              "dispatch_retries=%lld pool_retries=%lld pool_failed=%lld\n",
              last_health.degraded ? "YES" : "no",
              static_cast<long long>(last_health.consecutive_failures),
              static_cast<long long>(last_health.dispatch_retries),
              static_cast<long long>(last_health.pool_transient_retries),
              static_cast<long long>(last_health.pool_batches_failed));
  if (!smoke) {
    const double gain = pass_rps > 0 ? best_rps / pass_rps : 0.0;
    std::printf("acceptance: best coalesced vs pass-through at %.0f req/s "
                "offered: %.2fx (bar: >= 2x)%s\n",
                offered, gain, gain >= 2.0 ? "" : "  BELOW BAR");
  }
  return failures == 0 ? 0 : 1;
}
