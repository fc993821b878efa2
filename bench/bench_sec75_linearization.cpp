// §7.5: data-structure linearization overheads. Linearization runs on the
// host CPU before any tensor computation; its cost depends only on the
// structures (never the hidden size). Paper shape: microseconds, DAG-RNN
// highest (wavefront analysis over the densest structures), and a small
// fraction of end-to-end latency.

#include <algorithm>

#include "common.hpp"

using namespace cortex;

namespace {

double median_linearize_us(const bench::Workload& w,
                           const linearizer::LinearizerSpec& spec,
                           int reps = 21) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = runtime::now_ns();
    if (w.is_dag())
      (void)linearizer::linearize_dags(baselines::raw(w.dags), spec);
    else
      (void)linearizer::linearize_trees(baselines::raw(w.trees), spec);
    times.push_back(static_cast<double>(runtime::now_ns() - t0) * 1e-3);
  }
  std::nth_element(times.begin(), times.begin() + reps / 2, times.end());
  return times[static_cast<std::size_t>(reps / 2)];
}

}  // namespace

int main() {
  std::printf("Sec. 7.5 reproduction: linearization times (us) per "
              "dataset\n\n");
  std::printf("%-8s %28s %12s %12s\n", "batch", "TreeLSTM/TreeGRU/MV-RNN",
              "DAG-RNN", "TreeFC");
  bench::print_rule(66);
  for (const std::int64_t b : {1ll, 10ll}) {
    Rng rng(11);
    const bench::Workload sst = bench::make_workload("TreeLSTM", b, rng);
    const bench::Workload dag = bench::make_workload("DAG-RNN", b, rng);
    const bench::Workload fc = bench::make_workload("TreeFC", b, rng);
    linearizer::LinearizerSpec tree_spec;
    linearizer::LinearizerSpec dag_spec;
    dag_spec.kind = linearizer::StructureKind::kDag;
    std::printf("%-8lld %28.2f %12.2f %12.2f\n", static_cast<long long>(b),
                median_linearize_us(sst, tree_spec),
                median_linearize_us(dag, dag_spec),
                median_linearize_us(fc, tree_spec));
  }

  // Context: linearization as a fraction of Cortex's modeled end-to-end
  // latency on the GPU backend, batch 10, hidden hs (paper: 1.2% ..
  // 24.4%).
  std::printf("\nLinearization share of modeled end-to-end latency "
              "(GPU, batch 10, hs):\n");
  for (const std::string name :
       {"MV-RNN", "TreeLSTM", "TreeGRU", "TreeFC", "DAG-RNN"}) {
    Rng rng(11);
    const models::ModelDef def =
        bench::make_model(name, bench::hidden_size(name, true));
    const models::ModelParams params = models::init_params(def, rng);
    const bench::Workload w = bench::make_workload(name, 10, rng);
    exec::CortexEngine engine(def, params, ra::Schedule{},
                              runtime::DeviceSpec::v100_gpu());
    const runtime::RunResult r = bench::run_cortex(engine, w, 5);
    std::printf("  %-10s %5.1f%%\n", name.c_str(),
                100.0 * r.profiler.linearization_ns /
                    r.profiler.modeled_latency_ns());
  }
  return 0;
}
