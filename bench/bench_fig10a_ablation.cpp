// Figure 10a: benefit of Cortex's optimizations, applied progressively —
// no kernel fusion -> maximal kernel fusion -> +specialization ->
// +persistence. GPU backend, hidden 256, batch sizes 1 and 10.
// Paper shape: fusion is the big win for every model; specialization
// helps tree models (hoisting/constant propagation over the leaf
// majority) but NOT DAG-RNN (single formula, no leaf branch);
// persistence adds a further, smaller improvement.

#include "common.hpp"

using namespace cortex;

namespace {

ra::Schedule stage_schedule(int stage) {
  ra::Schedule s;
  switch (stage) {
    case 0:  // no kernel fusion
      s.fusion = ra::FusionLevel::kNone;
      s.specialize_leaves = false;
      s.persistence = false;
      break;
    case 1:  // maximal kernel fusion
      s.fusion = ra::FusionLevel::kMaximal;
      s.specialize_leaves = false;
      s.persistence = false;
      break;
    case 2:  // +specialization
      s.specialize_leaves = true;
      s.persistence = false;
      break;
    default:  // +persistence (the full default schedule)
      break;
  }
  return s;
}

}  // namespace

int main() {
  const runtime::DeviceSpec spec = runtime::DeviceSpec::v100_gpu();
  const char* stage_names[] = {"no fusion", "max fusion", "+specialize",
                               "+persist"};
  std::printf("Fig. 10a reproduction: optimization ablation, GPU, "
              "hidden 256 (latencies in ms)\n\n");
  std::printf("%-10s %-6s %12s %12s %12s %12s\n", "model", "batch",
              stage_names[0], stage_names[1], stage_names[2],
              stage_names[3]);
  bench::print_rule(70);

  for (const std::string name :
       {"TreeFC", "DAG-RNN", "TreeGRU", "TreeLSTM"}) {
    for (const std::int64_t b : {1ll, 10ll}) {
      Rng rng(31);
      const models::ModelDef def = bench::make_model(name, 256);
      const models::ModelParams params = models::init_params(def, rng);
      const bench::Workload w = bench::make_workload(name, b, rng);

      std::printf("%-10s %-6lld", name.c_str(), static_cast<long long>(b));
      for (int stage = 0; stage < 4; ++stage) {
        exec::CortexEngine engine(def, params, stage_schedule(stage), spec);
        std::printf(" %12.4f",
                    bench::run_cortex(engine, w, 2).modeled_latency_ms());
      }
      std::printf("\n");
    }
  }
  return 0;
}
