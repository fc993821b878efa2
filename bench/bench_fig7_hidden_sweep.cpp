// Figure 7: inference latency vs hidden size for the recursive portion of
// TreeLSTM, batch size 10, for Cavs and DyNet on the GPU and Intel
// backends (Cortex shown for reference). Paper shape: latency is nearly
// flat at small hidden sizes — framework overheads (graph construction,
// batching, kernel calls, memcpys) dominate — and compute takes over only
// at large hidden sizes.

#include "common.hpp"

using namespace cortex;

namespace {

void sweep(const runtime::DeviceSpec& spec) {
  std::printf("\n[Fig 7] TreeLSTM (recursive portion), batch 10, %s\n",
              spec.name.c_str());
  std::printf("%-8s %14s %14s %14s\n", "hidden", "Cavs (ms)", "DyNet (ms)",
              "Cortex (ms)");
  bench::print_rule(56);
  for (const std::int64_t h : {1, 2, 4, 8, 16, 32, 64, 128, 256, 512}) {
    Rng rng(2718);
    const models::ModelDef def = models::make_treelstm(h);
    const models::ModelParams params = models::init_params(def, rng);
    const bench::Workload w = bench::make_workload("TreeLSTM", 10, rng);

    baselines::CavsEngine cavs(def, params, spec);
    baselines::DynetEngine dynet(def, params, spec);
    exec::CortexEngine cortex_engine(def, params, ra::Schedule{}, spec);

    std::printf("%-8lld %14.3f %14.3f %14.3f\n", static_cast<long long>(h),
                bench::run_cavs(cavs, w, 2).modeled_latency_ms(),
                bench::run_dynet(dynet, w, 2).modeled_latency_ms(),
                bench::run_cortex(cortex_engine, w, 2).modeled_latency_ms());
  }
}

}  // namespace

int main() {
  std::printf("Fig. 7 reproduction: latency vs hidden size (framework "
              "overheads dominate small H)\n");
  sweep(runtime::DeviceSpec::v100_gpu());
  sweep(runtime::DeviceSpec::intel_cpu());
  return 0;
}
