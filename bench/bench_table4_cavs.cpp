// Table 4: Cavs vs Cortex inference latencies (ms) and speedups on the
// GPU backend. Following §7.2's fair-comparison setup: specialization is
// DISABLED in Cortex (the open-source Cavs has none), input matvecs are
// excluded from both (our Table-2 cells are the recursive portions), and
// Cavs' elementwise fusion is enabled only for TreeLSTM (the paper could
// not get it working for TreeFC/TreeGRU).

#include "common.hpp"

using namespace cortex;

int main() {
  const runtime::DeviceSpec spec = runtime::DeviceSpec::v100_gpu();
  std::printf("Table 4 reproduction: Cavs vs Cortex on %s\n",
              spec.name.c_str());
  std::printf("%-7s %-6s | %-28s | %-28s | %-28s\n", "hidden", "batch",
              "TreeFC (cavs/cortex, x)", "TreeGRU (cavs/cortex, x)",
              "TreeLSTM (cavs/cortex, x)");
  bench::print_rule(108);

  for (const bool small : {true, false}) {
    for (const std::int64_t b : {1ll, 10ll}) {
      std::printf("%-7s %-6lld |", small ? "hs" : "hl",
                  static_cast<long long>(b));
      for (const std::string name : {"TreeFC", "TreeGRU", "TreeLSTM"}) {
        Rng rng(1234);
        const models::ModelDef def =
            bench::make_model(name, bench::hidden_size(name, small));
        const models::ModelParams params = models::init_params(def, rng);
        const bench::Workload w = bench::make_workload(name, b, rng);

        baselines::CavsConfig cavs_cfg;
        cavs_cfg.fuse_eltwise = (name == "TreeLSTM");
        baselines::CavsEngine cavs(def, params, spec, cavs_cfg);
        exec::CortexEngine cortex_engine(def, params,
                                         ra::Schedule::cavs_comparable(),
                                         spec);

        const double t_cavs =
            bench::run_cavs(cavs, w, 2).modeled_latency_ms();
        const double t_cortex =
            bench::run_cortex(cortex_engine, w, 2).modeled_latency_ms();
        std::printf(" %7.3f/%-7.3f %5.2fx |", t_cavs, t_cortex,
                    t_cavs / t_cortex);
      }
      std::printf("\n");
    }
  }
  return 0;
}
