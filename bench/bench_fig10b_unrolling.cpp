// Figure 10b: recursion unrolling — helps TreeRNN (block-local schedule:
// one node per thread block, so unrolled sub-levels synchronize for free
// and children are reused on-chip) but hurts TreeLSTM (batched global
// schedule: unrolling multiplies device-wide barriers, Fig. 11, and
// Appendix D's register pressure forces persistence off).

#include "common.hpp"

using namespace cortex;

int main() {
  const runtime::DeviceSpec spec = runtime::DeviceSpec::v100_gpu();
  std::printf("Fig. 10b reproduction: recursion unrolling, GPU, hidden 256 "
              "(latencies in ms)\n\n");
  std::printf("%-10s %-6s %16s %14s\n", "model", "batch", "not unrolled",
              "unrolled (d=2)");
  bench::print_rule(52);

  for (const std::string name : {"TreeRNN", "TreeLSTM"}) {
    for (const std::int64_t b : {1ll, 10ll}) {
      Rng rng(17);
      const models::ModelDef def = bench::make_model(name, 256);
      const models::ModelParams params = models::init_params(def, rng);
      const bench::Workload w = bench::make_workload(name, b, rng);

      ra::Schedule base;  // full default schedule
      ra::Schedule unrolled;
      unrolled.unroll_depth = 2;
      unrolled.persistence = false;  // Appendix D: register pressure

      exec::CortexEngine e_base(def, params, base, spec);
      exec::CortexEngine e_unroll(def, params, unrolled, spec);
      std::printf("%-10s %-6lld %16.4f %14.4f\n", name.c_str(),
                  static_cast<long long>(b),
                  bench::run_cortex(e_base, w, 2).modeled_latency_ms(),
                  bench::run_cortex(e_unroll, w, 2).modeled_latency_ms());
    }
  }
  return 0;
}
