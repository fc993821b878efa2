// Table 6: time spent in runtime activities for DyNet, Cavs and Cortex —
// TreeLSTM, batch size 10, hidden size 256, GPU backend. Paper shape:
// DyNet pays graph construction + dynamic batching + memcpys and launches
// hundreds of kernels; Cavs skips graph construction but keeps per-op
// launches and copies; Cortex does one mega-kernel launch, no copies, and
// its only host work is linearization.

#include "common.hpp"

using namespace cortex;

namespace {

void print_row(const char* name, const runtime::RunResult& r) {
  const runtime::Profiler& p = r.profiler;
  std::printf("%-10s %12.3f %12.3f %17.3f %12.3f %9lld %12.3f %12.3f\n",
              name, (p.graph_construction_ns + p.linearization_ns) * 1e-6,
              p.dynamic_batching_ns * 1e-6,
              (p.mem_mgmt_host_ns + p.device_memcpy_ns) * 1e-6,
              p.device_compute_ns * 1e-6,
              static_cast<long long>(p.kernel_launches), p.host_api_ns * 1e-6,
              p.modeled_latency_ms());
}

}  // namespace

int main() {
  const runtime::DeviceSpec spec = runtime::DeviceSpec::v100_gpu();
  Rng rng(7);
  const models::ModelDef def = models::make_treelstm(256);
  const models::ModelParams params = models::init_params(def, rng);
  const bench::Workload w = bench::make_workload("TreeLSTM", 10, rng);

  baselines::DynetEngine dynet(def, params, spec);
  baselines::CavsEngine cavs(def, params, spec);
  exec::CortexEngine cortex_engine(def, params, ra::Schedule{}, spec);

  std::printf("Table 6 reproduction: runtime activity breakdown (ms), "
              "TreeLSTM, batch 10, hidden 256, GPU\n");
  std::printf("(graph const. column includes Cortex's linearization time, "
              "its analog)\n\n");
  std::printf("%-10s %12s %12s %17s %12s %9s %12s %12s\n", "framework",
              "graph(ms)", "dynbatch(ms)", "mem mgmt(ms)", "compute(ms)",
              "#kernels", "api(ms)", "total(ms)");
  bench::print_rule(102);
  print_row("DyNet", bench::run_dynet(dynet, w, 5));
  print_row("Cavs", bench::run_cavs(cavs, w, 5));
  print_row("Cortex", bench::run_cortex(cortex_engine, w, 5));
  return 0;
}
