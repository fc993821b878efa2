// Table 5: DyNet vs Cortex inference latencies (ms) and speedups across
// the GPU, Intel and ARM backends, for all five Table-2 models at both
// hidden sizes and batch sizes 1/10. Paper shape: Cortex wins everywhere
// except the hardest ARM hl/b10 MV-RNN corner (~parity), and speedups
// shrink as hidden size grows (overhead-bound -> compute-bound).

#include "common.hpp"

using namespace cortex;

int main() {
  const std::vector<std::string> model_names = {"TreeFC", "DAG-RNN",
                                                "TreeGRU", "TreeLSTM",
                                                "MV-RNN"};
  std::printf("Table 5 reproduction: DyNet-like vs Cortex "
              "(latencies in ms, dynet/cortex)\n\n");
  std::printf("%-8s %-7s %-6s", "backend", "hidden", "batch");
  for (const auto& m : model_names) std::printf(" | %-22s", m.c_str());
  std::printf("\n");
  bench::print_rule(150);

  for (const runtime::Backend backend :
       {runtime::Backend::kGpu, runtime::Backend::kIntel,
        runtime::Backend::kArm}) {
    const runtime::DeviceSpec spec = runtime::DeviceSpec::for_backend(backend);
    const char* bname = backend == runtime::Backend::kGpu     ? "GPU"
                        : backend == runtime::Backend::kIntel ? "Intel"
                                                              : "ARM";
    for (const bool small : {true, false}) {
      for (const std::int64_t b : {1ll, 10ll}) {
        std::printf("%-8s %-7s %-6lld", bname, small ? "hs" : "hl",
                    static_cast<long long>(b));
        for (const auto& name : model_names) {
          Rng rng(99);
          const models::ModelDef def =
              bench::make_model(name, bench::hidden_size(name, small));
          const models::ModelParams params = models::init_params(def, rng);
          const bench::Workload w = bench::make_workload(name, b, rng);

          baselines::DynetEngine dynet(def, params, spec);
          exec::CortexEngine cortex_engine(def, params, ra::Schedule{},
                                           spec);
          const double t_dynet =
              bench::run_dynet(dynet, w, 2).modeled_latency_ms();
          const double t_cortex =
              bench::run_cortex(cortex_engine, w, 2).modeled_latency_ms();
          std::printf(" | %6.2f/%-6.2f %5.2fx", t_dynet, t_cortex,
                      t_dynet / t_cortex);
        }
        std::printf("\n");
      }
    }
  }
  return 0;
}
