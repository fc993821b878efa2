// Figure 6: speedup of Cortex over the PyTorch-like eager baseline as a
// function of batch size, on the GPU and Intel backends, hidden size hs.
// Paper shape: speedups grow with batch size (PyTorch cannot batch or
// fuse) and are larger on the GPU than on the CPU.

#include "common.hpp"

using namespace cortex;

namespace {

void run_backend(const runtime::DeviceSpec& spec) {
  std::printf("\n[Fig 6] Speedup over PyTorch-like eager, %s, hidden hs\n",
              spec.name.c_str());
  const std::vector<std::string> model_names = {"TreeFC", "DAG-RNN",
                                                "TreeGRU", "TreeLSTM",
                                                "MV-RNN"};
  const std::vector<std::int64_t> batches = {1, 2, 4, 6, 8, 10};

  std::printf("%-10s", "batch");
  for (const auto& m : model_names) std::printf("%12s", m.c_str());
  std::printf("\n");
  bench::print_rule();

  for (const std::int64_t b : batches) {
    std::printf("%-10lld", static_cast<long long>(b));
    for (const auto& name : model_names) {
      Rng rng(42);
      const models::ModelDef def =
          bench::make_model(name, bench::hidden_size(name, true));
      const models::ModelParams params = models::init_params(def, rng);
      const bench::Workload w = bench::make_workload(name, b, rng);

      exec::CortexEngine cortex_engine(def, params, ra::Schedule{}, spec);
      baselines::EagerEngine eager(def, params, spec);
      const double t_cortex =
          bench::run_cortex(cortex_engine, w, 2).modeled_latency_ms();
      const double t_eager =
          bench::run_eager(eager, w, 2).modeled_latency_ms();
      std::printf("%11.1fx", t_eager / t_cortex);
    }
    std::printf("\n");
  }
}

}  // namespace

int main() {
  std::printf("Fig. 6 reproduction: Cortex speedup over PyTorch-like eager "
              "execution\n");
  run_backend(runtime::DeviceSpec::v100_gpu());
  run_backend(runtime::DeviceSpec::intel_cpu());
  return 0;
}
