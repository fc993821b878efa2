#pragma once
// Shared helpers for the paper-reproduction benchmark binaries: Table-2
// workload construction, engine runners with iteration averaging, and
// table formatting. Every bench binary prints the same rows/series its
// paper table or figure reports (see DESIGN.md §4 and EXPERIMENTS.md).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "baselines/cavs_like.hpp"
#include "baselines/common.hpp"
#include "baselines/dynet_like.hpp"
#include "baselines/eager.hpp"
#include "baselines/grnn_like.hpp"
#include "ds/generators.hpp"
#include "exec/cost_model.hpp"
#include "models/model_zoo.hpp"

namespace cortex::bench {

/// True when CORTEX_BENCH_SMOKE is set (non-empty, not "0"). Smoke runs
/// (`ctest -L smoke`) shrink batches, structure sizes and iteration counts
/// so every binary still exercises its full code path but finishes in
/// seconds; real measurement runs (scripts/run_benches.sh) leave it unset.
inline bool smoke_mode() {
  static const bool on = [] {
    const char* v = std::getenv("CORTEX_BENCH_SMOKE");
    const bool enabled = v != nullptr && v[0] != '\0' && std::string(v) != "0";
    if (enabled)
      std::fprintf(stderr,
                   "[cortex-bench] SMOKE MODE: workloads shrunk, iters=1 — "
                   "numbers below are not measurements\n");
    return enabled;
  }();
  return on;
}

/// A Table-2 dataset instance: trees or DAGs, per the model.
struct Workload {
  std::vector<std::unique_ptr<ds::Tree>> trees;
  std::vector<std::unique_ptr<ds::Dag>> dags;
  bool is_dag() const { return !dags.empty(); }
};

/// Builds the paper's dataset for a model (Table 2): perfect binary trees
/// of height 7 for TreeFC, synthetic 10x10 grid DAGs for DAG-RNN, and
/// SST-like random parse trees for the treebank models.
inline Workload make_workload(const std::string& model, std::int64_t batch,
                              Rng& rng) {
  if (smoke_mode()) batch = std::min<std::int64_t>(batch, 2);
  const std::int64_t height = smoke_mode() ? 4 : 7;
  const std::int64_t grid = smoke_mode() ? 4 : 10;
  Workload w;
  if (model == "TreeFC") {
    for (std::int64_t b = 0; b < batch; ++b)
      w.trees.push_back(ds::make_perfect_tree(height, rng));
  } else if (model == "DAG-RNN") {
    for (std::int64_t b = 0; b < batch; ++b)
      w.dags.push_back(ds::make_grid_dag(grid, grid, rng));
  } else {
    w.trees = ds::make_sst_like_batch(batch, rng);
  }
  return w;
}

/// Table-2 model by short name at a given hidden size.
inline models::ModelDef make_model(const std::string& name,
                                   std::int64_t hidden) {
  if (name == "TreeFC") return models::make_treefc(hidden);
  if (name == "DAG-RNN") return models::make_dagrnn(hidden);
  if (name == "TreeGRU") return models::make_treegru(hidden);
  if (name == "SimpleTreeGRU") return models::make_simple_treegru(hidden);
  if (name == "TreeLSTM") return models::make_treelstm(hidden);
  if (name == "MV-RNN") return models::make_mvrnn(hidden);
  if (name == "TreeRNN") return models::make_treernn(hidden);
  CORTEX_CHECK(false) << "unknown model " << name;
  return models::make_treefc(hidden);
}

/// The paper's hs/hl hidden sizes per model (Table 2 / §7.1).
inline std::int64_t hidden_size(const std::string& model, bool small) {
  if (model == "MV-RNN") return small ? 64 : 128;
  return small ? 256 : 512;
}

/// Runs `fn` (returning a RunResult) `iters` times — after one discarded
/// warmup run (cold caches perturb the measured host-side phases) — and
/// averages the profiler counters; peak memory is the max across runs.
template <typename F>
runtime::RunResult average_runs(F&& fn, int iters = 3) {
  if (smoke_mode()) {
    iters = 1;  // smoke runs measure nothing, so skip the warmup too
  } else {
    (void)fn();  // warmup
  }
  runtime::RunResult avg;
  runtime::Profiler acc;
  for (int i = 0; i < iters; ++i) {
    runtime::RunResult r = fn();
    acc.accumulate(r.profiler);
    avg.peak_memory_bytes = std::max(avg.peak_memory_bytes,
                                     r.peak_memory_bytes);
    if (i + 1 == iters) avg.root_states = std::move(r.root_states);
  }
  acc.scale(1.0 / iters);
  avg.profiler = acc;
  return avg;
}

/// Models the Cortex engine on a workload (trees or DAGs): linearizes it
/// (timed, as a run does) and returns exec::model_cost's modeled counters
/// and peak memory. Runs no numerics and returns no root states: the
/// paper's figures print modeled numbers only.
inline runtime::RunResult run_cortex(const exec::CortexEngine& engine,
                                     const Workload& w, int iters = 3) {
  return average_runs(
      [&] {
        double lin_ns = 0.0;
        const linearizer::Linearized lin =
            w.is_dag() ? engine.linearize(baselines::raw(w.dags), lin_ns)
                       : engine.linearize(baselines::raw(w.trees), lin_ns);
        return exec::model_cost(engine, lin, lin_ns);
      },
      iters);
}

inline runtime::RunResult run_eager(baselines::EagerEngine& engine,
                                    const Workload& w, int iters = 3) {
  return average_runs(
      [&] {
        return w.is_dag() ? engine.run(baselines::raw(w.dags))
                          : engine.run(baselines::raw(w.trees));
      },
      iters);
}

inline runtime::RunResult run_dynet(baselines::DynetEngine& engine,
                                    const Workload& w, int iters = 3) {
  return average_runs(
      [&] {
        return w.is_dag() ? engine.run(baselines::raw(w.dags))
                          : engine.run(baselines::raw(w.trees));
      },
      iters);
}

inline runtime::RunResult run_cavs(baselines::CavsEngine& engine,
                                   const Workload& w, int iters = 3) {
  CORTEX_CHECK(!w.is_dag())
      << "the open-source Cavs build has no DAG support (§7.2)";
  return average_runs([&] { return engine.run(baselines::raw(w.trees)); },
                      iters);
}

inline void print_rule(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace cortex::bench
