// Appendix C / Fig. 14: roofline operational-intensity analysis for the
// TreeFC model. Prints the analytic operational intensities of the three
// execution regimes, the paper's closed-form approximations, and the
// off-chip traffic our engines' device model counts, for comparison.
// Paper shape: O_cortex > O_dynet > O_pytorch (~0.5).

#include "common.hpp"
#include "roofline/roofline.hpp"

using namespace cortex;

int main() {
  std::printf("Appendix C reproduction: TreeFC roofline analysis\n\n");
  const std::int64_t h = 256;   // hs; the paper assumes N ~ H = N0
  const std::int64_t n = 255;   // perfect binary tree of height 7

  std::printf("%-8s %16s %16s %16s  (analytic O = F/B)\n", "batch",
              "O_cortex", "O_dynet", "O_pytorch");
  bench::print_rule(72);
  for (const std::int64_t b : {1ll, 2ll, 4ll, 8ll, 10ll}) {
    const roofline::TreeFcRoofline r = roofline::treefc_roofline(n, b, h);
    std::printf("%-8lld %16.2f %16.2f %16.2f\n", static_cast<long long>(b),
                r.oi_cortex(), r.oi_dynet(), r.oi_pytorch());
  }

  std::printf("\nClosed-form approximations (N ~ H = N0 = %lld):\n",
              static_cast<long long>(h));
  for (const std::int64_t b : {1ll, 10ll}) {
    std::printf("  B=%-3lld  ~O_cortex=%.2f  ~O_dynet=%.2f  "
                "~O_pytorch=%.2f\n",
                static_cast<long long>(b),
                roofline::approx_oi_cortex(h, b),
                roofline::approx_oi_dynet(h, b),
                roofline::approx_oi_pytorch());
  }

  // Off-chip traffic counted by the engines' device-model counters
  // (Cortex's by exec::model_cost): modeled, like every device number,
  // but counted over real workloads rather than the closed forms above.
  std::printf("\nModeled operational intensity (engine traffic "
              "counters, batch 10):\n");
  Rng rng(3);
  const models::ModelDef def = models::make_treefc(h);
  const models::ModelParams params = models::init_params(def, rng);
  const bench::Workload w = bench::make_workload("TreeFC", 10, rng);

  auto oi = [](const runtime::RunResult& r) {
    return static_cast<double>(r.profiler.device_flops) /
           static_cast<double>(r.profiler.device_bytes_read +
                               r.profiler.device_bytes_written);
  };
  exec::CortexEngine cortex_engine(def, params, ra::Schedule{},
                                   runtime::DeviceSpec::v100_gpu());
  baselines::DynetEngine dynet(def, params, runtime::DeviceSpec::v100_gpu());
  baselines::EagerEngine eager(def, params, runtime::DeviceSpec::v100_gpu());
  std::printf("  modeled O_cortex   = %8.2f\n",
              oi(bench::run_cortex(cortex_engine, w, 1)));
  std::printf("  modeled O_dynet    = %8.2f\n",
              oi(bench::run_dynet(dynet, w, 1)));
  std::printf("  modeled O_pytorch  = %8.2f\n",
              oi(bench::run_eager(eager, w, 1)));
  return 0;
}
