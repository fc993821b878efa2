// Figure 10c: recursive refactoring of the GRU h-gate. Refactoring moves
// the recursion backedge (Fig. 4) so one device-wide sync point per step
// disappears — but TreeGRU's h = z*hsum + (1-z)*h' must rematerialize the
// z*hsum term across the moved boundary, eating the gain (~flat);
// SimpleTreeGRU's h = (1-z)*h' has no such term and improves ~25%.

#include "common.hpp"

using namespace cortex;

int main() {
  const runtime::DeviceSpec spec = runtime::DeviceSpec::v100_gpu();
  std::printf("Fig. 10c reproduction: recursive refactoring, GPU, "
              "hidden 256 (latencies in ms)\n\n");
  std::printf("%-14s %-6s %14s %12s %9s\n", "model", "batch", "unrefactored",
              "refactored", "gain");
  bench::print_rule(60);

  for (const std::string name : {"SimpleTreeGRU", "TreeGRU"}) {
    for (const std::int64_t b : {1ll, 10ll}) {
      Rng rng(23);
      const models::ModelDef def = bench::make_model(name, 256);
      const models::ModelParams params = models::init_params(def, rng);
      const bench::Workload w = bench::make_workload(name, b, rng);

      ra::Schedule base;
      ra::Schedule refactored;
      refactored.refactor = true;

      exec::CortexEngine e_base(def, params, base, spec);
      exec::CortexEngine e_ref(def, params, refactored, spec);
      const double t0 = bench::run_cortex(e_base, w, 2).modeled_latency_ms();
      const double t1 = bench::run_cortex(e_ref, w, 2).modeled_latency_ms();
      std::printf("%-14s %-6lld %14.4f %12.4f %8.1f%%\n", name.c_str(),
                  static_cast<long long>(b), t0, t1,
                  100.0 * (t0 - t1) / t0);
    }
  }
  return 0;
}
