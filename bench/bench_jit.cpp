// JIT'd kernel vs ILIR interpreter, and JIT'd kernel vs the served path.
//
// Part 1, on the Fig. 9 sequential LSTM configuration (hidden 256,
// sequence length 100): per-iteration wall time for the kernel and the
// interpreter over identical storage, and the one-time build cost
// (verify, codegen, `cc`, dlopen — see exec/jit.hpp). Both paths must
// agree bitwise.
//
// Part 2, the measurement behind keeping the JIT off the serving path:
// for SeqLSTM h256 (length-100 chains), TreeLSTM h64 (SST-like trees)
// and DAG-RNN h256 (10x10 grids) at batch {1, 8, 64}, the kernel built
// from exec::compile_ilir's optimized program and memory plan against
// CortexEngine::run_linearized (the served numeric path) at 1 thread and
// at the default thread count, on the identical Linearized. The max
// |diff| of root states is printed, not gated: the ILIR and the cell
// executor are different formulations of the same model.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "exec/ilir_runner.hpp"
#include "exec/jit.hpp"
#include "exec/memory_plan.hpp"
#include "lowering/lower.hpp"
#include "runtime/profiler.hpp"

namespace cortex {
namespace {

/// Median wall time of `fn` after one warmup: at least one timed run, then
/// more until `budget_ms` of timed runs or `max_iters` runs.
template <typename F>
double median_ms(F&& fn, double budget_ms, int max_iters) {
  (void)fn();  // warmup
  std::vector<double> samples;
  double spent = 0.0;
  while (samples.empty() ||
         (spent < budget_ms && static_cast<int>(samples.size()) < max_iters)) {
    const std::int64_t t0 = runtime::now_ns();
    (void)fn();
    const double ms = static_cast<double>(runtime::now_ns() - t0) * 1e-6;
    samples.push_back(ms);
    spent += ms;
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

int jit_vs_interpreter() {
  const std::int64_t hidden = bench::smoke_mode() ? 32 : 256;
  const std::int64_t seq_len = bench::smoke_mode() ? 8 : 100;
  const double budget_ms = bench::smoke_mode() ? 0.0 : 1500.0;
  const int max_iters = bench::smoke_mode() ? 1 : 20;

  Rng rng(4242);
  const models::ModelDef def = models::make_seq_lstm(hidden);
  const models::ModelParams params = models::init_params(def, rng);
  const lowering::LoweredModel lm =
      lowering::lower(*def.model, ra::Schedule{});
  auto chain = ds::make_chain_tree(seq_len, rng);
  std::vector<const ds::Tree*> trees{chain.get()};
  const linearizer::Linearized lin =
      linearizer::linearize_trees(trees, lm.lin_spec);

  std::printf("JIT vs interpreter: SeqLSTM hidden=%lld seq=%lld (Fig. 9 "
              "config)\n",
              static_cast<long long>(hidden), static_cast<long long>(seq_len));
  bench::print_rule();

  const exec::MemoryPlanOptions mp_opts{{lm.output}, {}};
  const exec::MemoryPlan plan = exec::plan_memory(lm.program, mp_opts);

  const std::int64_t t0 = runtime::now_ns();
  const exec::JitKernelPtr kernel =
      exec::build_kernel(lm.program, &plan, mp_opts);
  const double build_ms =
      static_cast<double>(runtime::now_ns() - t0) * 1e-6;
  std::printf("kernel build_ms=%.1f\n", build_ms);

  exec::IlirRunOptions jit_opts;
  jit_opts.plan = &plan;
  jit_opts.jit = kernel.get();
  exec::IlirRunOptions interp_opts;
  interp_opts.plan = &plan;

  const exec::IlirRun jit_run = exec::run_ilir(lm.program, lin, params, jit_opts);
  const exec::IlirRun interp_run =
      exec::run_ilir(lm.program, lin, params, interp_opts);
  // The envelope only carries honest numbers: both paths must agree
  // exactly before anything is timed.
  if (jit_run.barriers != interp_run.barriers ||
      !allclose(jit_run.at(lm.output), interp_run.at(lm.output), 0.0f, 0.0f)) {
    std::fprintf(stderr, "JIT/interpreter divergence on bench config\n");
    return 1;
  }

  const double jit_ms = median_ms(
      [&] { return exec::run_ilir(lm.program, lin, params, jit_opts); },
      budget_ms, max_iters);
  const double interp_ms = median_ms(
      [&] { return exec::run_ilir(lm.program, lin, params, interp_opts); },
      budget_ms, max_iters);

  std::printf("warm_run_ms jit=%.3f interpreter=%.3f speedup=%.1fx\n",
              jit_ms, interp_ms, interp_ms / jit_ms);
  std::printf("breakeven_runs=%.1f (build cost / per-run saving)\n",
              build_ms / std::max(interp_ms - jit_ms, 1e-9));
  bench::print_rule();
  return 0;
}

// Structure sizes of the served-path sweep (shrunk in smoke mode).
std::int64_t chain_length() { return bench::smoke_mode() ? 8 : 100; }
std::int64_t grid_side() { return bench::smoke_mode() ? 4 : 10; }

std::string inputs_label(const models::ModelDef& def) {
  if (def.name == "SeqLSTM")
    return "len-" + std::to_string(chain_length()) + " chains";
  if (def.model->kind == linearizer::StructureKind::kDag)
    return std::to_string(grid_side()) + "x" + std::to_string(grid_side()) +
           " grids";
  return "SST-like trees";
}

linearizer::Linearized make_inputs(const models::ModelDef& def,
                                   const linearizer::LinearizerSpec& lspec,
                                   std::int64_t batch, Rng& rng) {
  if (def.model->kind == linearizer::StructureKind::kDag) {
    const std::int64_t grid = grid_side();
    std::vector<std::unique_ptr<ds::Dag>> dags;
    for (std::int64_t b = 0; b < batch; ++b)
      dags.push_back(ds::make_grid_dag(grid, grid, rng));
    linearizer::LinearizerSpec dag_spec = lspec;
    dag_spec.kind = linearizer::StructureKind::kDag;  // as CortexEngine::run
    return linearizer::linearize_dags(baselines::raw(dags), dag_spec);
  }
  std::vector<std::unique_ptr<ds::Tree>> trees;
  if (def.name == "SeqLSTM") {
    for (std::int64_t b = 0; b < batch; ++b)
      trees.push_back(ds::make_chain_tree(chain_length(), rng));
  } else {
    trees = ds::make_sst_like_batch(batch, rng);
  }
  return linearizer::linearize_trees(baselines::raw(trees), lspec);
}

int jit_vs_served() {
  const bool smoke = bench::smoke_mode();
  const std::vector<std::int64_t> batches =
      smoke ? std::vector<std::int64_t>{1, 2}
            : std::vector<std::int64_t>{1, 8, 64};
  const double budget_ms = smoke ? 0.0 : 1500.0;
  const int max_iters = smoke ? 1 : 15;
  const int default_threads = support::ThreadPool::default_num_threads();

  std::vector<models::ModelDef> defs;
  defs.push_back(models::make_seq_lstm(smoke ? 16 : 256));
  defs.push_back(models::make_treelstm(smoke ? 16 : 64));
  defs.push_back(models::make_dagrnn(smoke ? 16 : 256));

  std::printf("JIT kernel vs served path (CortexEngine::run_linearized), "
              "identical Linearized, default schedule\n");
  std::printf("served_1t = 1 engine thread; served_%dt = default thread "
              "count; ratio = jit / served\n",
              default_threads);
  std::printf("%-14s %-15s %5s %7s %11s %11s %11s %9s %9s %10s\n", "model",
              "inputs", "batch", "nodes", "jit_ms", "served_1t",
              ("served_" + std::to_string(default_threads) + "t").c_str(),
              "ratio_1t", "ratio_nt", "max|diff|");
  bench::print_rule(108);

  Rng rng(909);
  for (const models::ModelDef& def : defs) {
    const std::string label = def.name + " h" + std::to_string(def.hidden);
    const models::ModelParams params = models::init_params(def, rng);
    exec::CortexEngine engine(def, params, ra::Schedule{},
                              runtime::DeviceSpec::v100_gpu());
    const exec::CompiledIlir compiled =
        exec::compile_ilir(*def.model, ra::Schedule{});
    const ilir::Program& program = compiled.optimized;
    const std::string& output = compiled.lowered.output;
    const exec::MemoryPlanOptions mp_opts{{output}, {}};
    const exec::JitKernelPtr kernel =
        exec::build_kernel(program, &compiled.memory, mp_opts);
    exec::IlirRunOptions jit_opts;
    jit_opts.plan = &compiled.memory;
    jit_opts.jit = kernel.get();

    for (const std::int64_t batch : batches) {
      const linearizer::Linearized lin =
          make_inputs(def, compiled.lowered.lin_spec, batch, rng);

      const exec::IlirRun jit_run =
          exec::run_ilir(program, lin, params, jit_opts);
      engine.set_num_threads(1);
      const runtime::RunResult served = engine.run_linearized(lin, 0.0);
      // Root rows of the ILIR output against the served root states.
      const Tensor& out = jit_run.at(output);
      const std::int64_t width = std::min<std::int64_t>(
          out.numel() / std::max<std::int64_t>(lin.num_nodes, 1),
          def.cell.state_width);
      double max_diff = 0.0;
      for (std::size_t r = 0; r < lin.roots.size(); ++r) {
        const float* jit_row = out.data() + lin.roots[r] * width;
        for (std::int64_t i = 0; i < width; ++i)
          max_diff = std::max(
              max_diff,
              std::fabs(static_cast<double>(jit_row[i]) -
                        served.root_states[r][static_cast<std::size_t>(i)]));
      }

      const double jit_ms = median_ms(
          [&] { return exec::run_ilir(program, lin, params, jit_opts); },
          budget_ms, max_iters);
      const double served_1t_ms = median_ms(
          [&] { return engine.run_linearized(lin, 0.0); }, budget_ms,
          max_iters);
      engine.set_num_threads(0);  // back to the default thread count
      const double served_nt_ms = median_ms(
          [&] { return engine.run_linearized(lin, 0.0); }, budget_ms,
          max_iters);
      std::printf("%-14s %-15s %5lld %7lld %11.3f %11.3f %11.3f %8.1fx "
                  "%8.1fx %10.2e\n",
                  label.c_str(), inputs_label(def).c_str(),
                  static_cast<long long>(batch),
                  static_cast<long long>(lin.num_nodes), jit_ms, served_1t_ms,
                  served_nt_ms, jit_ms / served_1t_ms, jit_ms / served_nt_ms,
                  max_diff);
    }
  }
  bench::print_rule(108);
  return 0;
}

}  // namespace
}  // namespace cortex

int main() {
  const int rc = cortex::jit_vs_interpreter();
  if (rc != 0) return rc;
  return cortex::jit_vs_served();
}
