// Batched wavefront GEMMs: per-node GEMV execution vs panel-GEMM
// execution of the numeric wavefront, on the Fig. 9 sequential-LSTM
// configuration (hidden 256, sequence length 100). Every wavefront batch
// of a chain mini-batch holds `batch` independent timesteps sharing the
// same eight gate weights, so the batched executor turns 8*batch GEMVs
// into panel GEMMs — the compute-dense form of dynamic batching (Cortex
// §5 / Cavs' pull-compute-push, GRNN's fused steps). The four W·x
// products read only the token leaves, so they run once per hoisting
// window as tall GEMMs (all 99 steps of a batch-1 chain in one), and
// each step runs 4 panel GEMMs, the U·h products: panel_gemms is
// 4 per window + 4 per step.
//
// The per-node column walks exec_order through models::CellExecutor
// (the engine's own per-node path, selected there only by a schedule
// without dynamic batching or a panel-incompatible cell).
//
// Acceptance (full-size runs): single-thread batched speedup >= 2x over
// per-node at batch >= 64. Outputs must be bit-identical in every row;
// a mismatch fails the binary.

#include "common.hpp"

using namespace cortex;

namespace {

/// Best-of-`iters` wall time of `fn` after one warmup run (pool, caches,
/// panels).
template <typename F>
double best_ms(F&& fn, int iters) {
  fn();
  double best = 0.0;
  for (int i = 0; i < iters; ++i) {
    const std::int64_t t0 = runtime::now_ns();
    fn();
    const double ms = static_cast<double>(runtime::now_ns() - t0) * 1e-6;
    if (i == 0 || ms < best) best = ms;
  }
  return best;
}

/// Per-node reference: one CellExecutor::run_node per node in exec_order,
/// into `states` (N x state_width, row-major).
void run_per_node(const models::CellExecutor& cell,
                  const linearizer::Linearized& lin, std::int64_t sw,
                  std::vector<float>& states) {
  states.assign(static_cast<std::size_t>(lin.num_nodes * sw), 0.0f);
  models::CellExecutor::Scratch regs;
  std::vector<const float*> kids;
  for (const std::int32_t id : lin.exec_order) {
    const auto n = static_cast<std::size_t>(id);
    kids.clear();
    for (std::int32_t c = lin.child_offsets[n]; c < lin.child_offsets[n + 1];
         ++c)
      kids.push_back(states.data() +
                     lin.child_ids[static_cast<std::size_t>(c)] * sw);
    cell.run_node(kids.empty(), kids, lin.word[n], states.data() + id * sw,
                  regs);
  }
}

}  // namespace

int main() {
  const bool smoke = bench::smoke_mode();
  const std::int64_t hidden = smoke ? 32 : 256;
  const std::int64_t seq_len = smoke ? 8 : 100;
  const int iters = smoke ? 1 : 5;
  const std::vector<std::int64_t> batches =
      smoke ? std::vector<std::int64_t>{1, 2}
            : std::vector<std::int64_t>{1, 8, 64, 128};

  std::printf("Batched wavefront GEMMs: per-node GEMV vs panel GEMM, "
              "SeqLSTM (Fig. 9 config)\n");
  std::printf("hidden=%lld seq_len=%lld threads=1 iters=%d\n",
              static_cast<long long>(hidden),
              static_cast<long long>(seq_len), iters);

  const models::ModelDef def = models::make_seq_lstm(hidden);
  Rng rng(33);
  const models::ModelParams params = models::init_params(def, rng);
  exec::CortexEngine engine(def, params, ra::Schedule{},
                            runtime::DeviceSpec::v100_gpu());
  engine.set_num_threads(1);
  const models::CellExecutor cell(def.cell, params);
  const std::int64_t sw = def.cell.state_width;

  std::printf("%-8s %8s %14s %14s %10s %12s %10s\n", "batch", "nodes",
              "per-node (ms)", "batched (ms)", "speedup", "panel_gemms",
              "max_rows");
  bench::print_rule(84);

  bool all_identical = true;
  double accept_speedup = -1.0;
  for (const std::int64_t b : batches) {
    std::vector<std::unique_ptr<ds::Tree>> chains;
    for (std::int64_t i = 0; i < b; ++i)
      chains.push_back(ds::make_chain_tree(seq_len, rng));
    const std::vector<const ds::Tree*> raw = baselines::raw(chains);
    // Linearize once: the sweep measures the executor, not the linearizer.
    const linearizer::Linearized lin =
        linearizer::linearize_trees(raw, linearizer::LinearizerSpec{});

    std::vector<float> per_node_states;
    const double t_node = best_ms(
        [&] { run_per_node(cell, lin, sw, per_node_states); }, iters);
    runtime::RunResult batched;
    const double t_batch =
        best_ms([&] { batched = engine.run_linearized(lin, 0.0); }, iters);

    // Every node state, not just the roots: a regression in an
    // intermediate wavefront must fail the gate too.
    const bool identical = std::equal(
        per_node_states.begin(), per_node_states.end(),
        engine.last_states().data());
    all_identical = all_identical && identical;
    const double speedup = t_node / t_batch;
    if (!smoke && b >= 64 &&
        (accept_speedup < 0 || speedup < accept_speedup))
      accept_speedup = speedup;
    std::printf("%-8lld %8lld %14.3f %14.3f %9.2fx %12lld %10lld%s\n",
                static_cast<long long>(b),
                static_cast<long long>(lin.num_nodes), t_node, t_batch,
                speedup,
                static_cast<long long>(batched.profiler.batched_gemm_calls),
                static_cast<long long>(batched.profiler.max_panel_rows),
                identical ? "" : "  OUTPUT MISMATCH");
  }

  bench::print_rule(84);
  std::printf("outputs bit-identical to per-node execution across the "
              "sweep: %s\n",
              all_identical ? "yes" : "NO — BUG");
  // Smoke runs measure nothing, so only full-size runs enforce the bar.
  const bool accept_ok = smoke || accept_speedup >= 2.0;
  if (!smoke)
    std::printf("acceptance: min single-thread speedup at batch >= 64: "
                "%.2fx (bar: >= 2x)%s\n",
                accept_speedup, accept_ok ? "" : "  BELOW BAR");
  return all_identical && accept_ok ? 0 : 1;
}
