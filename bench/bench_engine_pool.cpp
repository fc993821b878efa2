// Engine-pool bench: sharded serving vs a single engine, sweeping worker
// count x batch size on the TreeLSTM treebank workload.
//
// Two views per configuration:
//   - modeled serving latency (the repo's methodology, DESIGN.md §2): a
//     single engine's modeled end-to-end latency vs the pool's, the
//     slowest modeled EnginePool::shard_plan slice (shards never outnumber
//     workers, so each runs on its own). Both come from exec::model_cost,
//     offline, with zero linearization time on both sides (as the tuner
//     models it), so this headline speedup is deterministic and
//     host-independent: a one-shard pool reads exactly 1.00x.
//   - measured host wall time per run() (diagnostic): real speedup here
//     tracks the modeled one only on hosts with >= workers idle cores;
//     on smaller hosts the shards time-slice.
// Every configuration is also checked bit-identical to the single-engine
// reference before being reported.
//
// Acceptance bar (ISSUE 5): >= 2x modeled serving throughput over the
// single engine at 4+ workers on the large batch.

#include <functional>
#include <thread>

#include "common.hpp"
#include "exec/engine_pool.hpp"

using namespace cortex;

namespace {

/// Modeled end-to-end latency of `engine` over `trees`, with zero
/// linearization time: a measured host time would make the modeled
/// column vary run to run.
double modeled_ns(const exec::CortexEngine& engine,
                  const std::vector<const ds::Tree*>& trees) {
  double lin_ns = 0.0;
  const linearizer::Linearized lin = engine.linearize(trees, lin_ns);
  return exec::model_cost(engine, lin, 0.0).profiler.modeled_latency_ns();
}

double wall_ns_per_run(const std::function<runtime::RunResult()>& fn,
                       int iters) {
  (void)fn();  // warmup (plan cache, allocator)
  const std::int64_t t0 = runtime::now_ns();
  for (int i = 0; i < iters; ++i) (void)fn();
  return static_cast<double>(runtime::now_ns() - t0) / iters;
}

}  // namespace

int main() {
  const bool smoke = bench::smoke_mode();
  const std::int64_t hidden = smoke ? 16 : 64;
  const int iters = smoke ? 1 : 3;
  const std::vector<std::int64_t> batches =
      smoke ? std::vector<std::int64_t>{2, 4}
            : std::vector<std::int64_t>{16, 64, 256};
  const std::vector<int> workers =
      smoke ? std::vector<int>{2} : std::vector<int>{1, 2, 4, 8};

  const models::ModelDef def = models::make_treelstm(hidden);
  Rng rng(61);
  const models::ModelParams params = models::init_params(def, rng);
  const runtime::DeviceSpec spec = runtime::DeviceSpec::v100_gpu();

  std::printf("Engine pool: sharded serving vs single engine (TreeLSTM, "
              "hidden %lld, SST-like trees)\n",
              static_cast<long long>(hidden));
  std::printf("modeled = analytical device model; wall = measured host "
              "time on this machine (%u cores)\n",
              std::thread::hardware_concurrency());
  std::printf("%7s %8s %7s %14s %14s %9s %12s %9s\n", "workers", "batch",
              "shards", "single (ms)", "pool (ms)", "speedup", "wall-pool",
              "wall-spd");
  bench::print_rule(90);

  // Acceptance is the MINIMUM modeled speedup over all 4+ worker rows on
  // the largest batch — "at 4+ workers", not "at the best worker count".
  double accept_speedup = -1.0;
  bool all_identical = true;

  for (const std::int64_t batch : batches) {
    Rng wrng(7 + static_cast<std::uint64_t>(batch));
    const auto trees = ds::make_sst_like_batch(batch, wrng);
    const auto raw = baselines::raw(trees);

    exec::CortexEngine single(def, params, ra::Schedule{}, spec);
    single.set_num_threads(1);
    const runtime::RunResult ref = single.run(raw);
    const double modeled_single = modeled_ns(single, raw);
    const double single_wall =
        wall_ns_per_run([&] { return single.run(raw); }, iters);

    for (const int w : workers) {
      exec::EnginePool pool(def, params, ra::Schedule{}, spec,
                            exec::EnginePoolOptions{w});
      const runtime::RunResult out = pool.run(raw);
      const bool identical = out.root_states == ref.root_states;
      all_identical = all_identical && identical;

      const double pool_wall =
          wall_ns_per_run([&] { return pool.run(raw); }, iters);
      double modeled_pool = 0.0;
      for (const exec::EnginePool::Shard& sh :
           exec::EnginePool::shard_plan(batch, w))
        modeled_pool = std::max(
            modeled_pool,
            modeled_ns(single, {raw.begin() + sh.begin, raw.begin() + sh.end}));
      const double speedup =
          modeled_pool > 0 ? modeled_single / modeled_pool : 0.0;
      const double wall_speedup =
          pool_wall > 0 ? single_wall / pool_wall : 0.0;

      if (w >= 4 && batch == batches.back() &&
          (accept_speedup < 0 || speedup < accept_speedup))
        accept_speedup = speedup;
      std::printf(
          "%7d %8lld %7zu %14.3f %14.3f %8.2fx %9.3fms %8.2fx%s\n", w,
          static_cast<long long>(batch), out.shards.size(),
          modeled_single * 1e-6, modeled_pool * 1e-6, speedup,
          pool_wall * 1e-6, wall_speedup,
          identical ? "" : "  OUTPUT MISMATCH");
    }
  }

  bench::print_rule(90);
  std::printf("outputs bit-identical to single engine across the sweep: "
              "%s\n",
              all_identical ? "yes" : "NO — BUG");
  if (!smoke)
    std::printf("acceptance: min modeled serving speedup across 4+ worker "
                "rows at batch %lld: %.2fx (bar: >= 2x)%s\n",
                static_cast<long long>(batches.back()), accept_speedup,
                accept_speedup >= 2.0 ? "" : "  BELOW BAR");
  return all_identical ? 0 : 1;
}
