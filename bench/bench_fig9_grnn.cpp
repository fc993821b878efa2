// Figure 9: Cortex vs GRNN's hand-optimized persistent sequential
// LSTM/GRU kernels, sequence length 100, hidden size 256, batch sizes 1
// and 10. GRNN uses a lock-free global barrier; the lock-based variant is
// included for a fair comparison (Cortex's prototype barrier is
// lock-based). Paper shape: Cortex-generated code is competitive,
// bracketed by the two GRNN barrier variants. §7.4: the GRU uses
// recursive refactoring (one sync point per step instead of two).

#include "common.hpp"

using namespace cortex;

namespace {

void run_model(const models::ModelDef& def, bool refactor) {
  const runtime::DeviceSpec spec = runtime::DeviceSpec::v100_gpu();
  Rng rng(5);
  const models::ModelParams params = models::init_params(def, rng);

  // This bench builds its own chain workload (it sweeps sequence models,
  // which make_workload does not cover), so it must shrink itself in
  // smoke mode like make_workload-based benches do.
  const std::int64_t seq_len = bench::smoke_mode() ? 8 : 100;
  const std::int64_t big_batch = bench::smoke_mode() ? 2 : 10;

  std::printf("\n%s (seq len %lld, hidden %lld)\n", def.name.c_str(),
              static_cast<long long>(seq_len),
              static_cast<long long>(def.cell.state_width));
  std::printf("%-8s %18s %24s %14s\n", "batch", "GRNN (ms)",
              "GRNN lock-based (ms)", "Cortex (ms)");
  bench::print_rule(70);
  for (const std::int64_t b : {std::int64_t{1}, big_batch}) {
    bench::Workload chains;
    for (std::int64_t i = 0; i < b; ++i)
      chains.trees.push_back(ds::make_chain_tree(seq_len, rng));
    const std::vector<const ds::Tree*> raw = baselines::raw(chains.trees);

    baselines::GrnnConfig lockfree{/*lock_free_barrier=*/true, refactor};
    baselines::GrnnConfig locked{/*lock_free_barrier=*/false, refactor};
    const double t_free =
        bench::average_runs(
            [&] { return baselines::run_grnn(def, params, raw, spec,
                                             lockfree); },
            3)
            .modeled_latency_ms();
    const double t_lock =
        bench::average_runs(
            [&] { return baselines::run_grnn(def, params, raw, spec,
                                             locked); },
            3)
            .modeled_latency_ms();

    ra::Schedule sched;
    sched.lock_free_barrier = false;  // Cortex's prototype barrier (§7.2)
    sched.refactor = refactor;
    exec::CortexEngine engine(def, params, sched, spec);
    const double t_cortex =
        bench::run_cortex(engine, chains, 3).modeled_latency_ms();

    std::printf("%-8lld %18.3f %24.3f %14.3f\n", static_cast<long long>(b),
                t_free, t_lock, t_cortex);
  }
}

}  // namespace

int main() {
  std::printf("Fig. 9 reproduction: Cortex vs hand-optimized GRNN "
              "(persistent sequential RNNs)\n");
  const std::int64_t hidden = cortex::bench::smoke_mode() ? 64 : 256;
  run_model(models::make_seq_lstm(hidden), /*refactor=*/false);
  run_model(models::make_seq_gru(hidden), /*refactor=*/true);
  return 0;
}
