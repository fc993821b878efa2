// Schedule explorer: sweeps Cortex's recursion-scheduling primitives and
// ILIR-level knobs on one model and prints the modeled latency of every
// legal combination — the manual analog of the auto-scheduling the paper
// leaves to future work (§6).
//
//   $ ./example_schedule_explorer [model] [hidden] [batch]

#include <cstdio>
#include <cstdlib>
#include <string>

#include "baselines/common.hpp"
#include "ds/generators.hpp"
#include "exec/cost_model.hpp"
#include "exec/tuner.hpp"
#include "models/model_zoo.hpp"

using namespace cortex;

namespace {

models::ModelDef model_by_name(const std::string& name, std::int64_t h) {
  if (name == "TreeFC") return models::make_treefc(h);
  if (name == "TreeGRU") return models::make_treegru(h);
  if (name == "SimpleTreeGRU") return models::make_simple_treegru(h);
  if (name == "TreeLSTM") return models::make_treelstm(h);
  if (name == "TreeRNN") return models::make_treernn(h);
  if (name == "MV-RNN") return models::make_mvrnn(h);
  CORTEX_CHECK(false) << "unknown model " << name;
  return models::make_treefc(h);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "TreeGRU";
  const std::int64_t hidden = argc > 2 ? std::atoll(argv[2]) : 256;
  const std::int64_t batch = argc > 3 ? std::atoll(argv[3]) : 10;

  Rng rng(123);
  const models::ModelDef def = model_by_name(name, hidden);
  const models::ModelParams params = models::init_params(def, rng);
  auto trees = ds::make_sst_like_batch(batch, rng);
  const std::vector<const ds::Tree*> raw = baselines::raw(trees);

  std::printf("Schedule space for %s (hidden %lld, batch %lld, GPU "
              "model)\n\n",
              def.name.c_str(), static_cast<long long>(hidden),
              static_cast<long long>(batch));
  std::printf("%-56s %12s %10s %9s\n", "schedule", "latency(ms)", "#kernels",
              "barriers");

  double best = 1e30;
  std::string best_desc;
  for (const bool batching : {true, false}) {
    for (const bool specialize : {true, false}) {
      for (const auto fusion :
           {ra::FusionLevel::kMaximal, ra::FusionLevel::kNone}) {
        for (const bool persist : {true, false}) {
          for (const std::int64_t unroll : {1ll, 2ll}) {
            ra::Schedule s;
            s.dynamic_batching = batching;
            s.specialize_leaves = specialize;
            s.fusion = fusion;
            s.persistence = persist;
            s.unroll_depth = unroll;
            if (unroll > 1 && persist) continue;  // Appendix D
            exec::CortexEngine engine(def, params, s,
                                      runtime::DeviceSpec::v100_gpu());
            // Best of three linearizations: the modeled part is
            // deterministic, the measured linearization time is not.
            runtime::RunResult r;
            for (int rep = 0; rep < 3; ++rep) {
              double lin_ns = 0.0;
              const linearizer::Linearized lin = engine.linearize(raw, lin_ns);
              runtime::RunResult r2 = exec::model_cost(engine, lin, lin_ns);
              if (rep == 0 || r2.modeled_latency_ms() < r.modeled_latency_ms())
                r = std::move(r2);
            }
            const std::string desc = ra::to_string(s);
            std::printf("%-56s %12.4f %10lld %9lld\n", desc.c_str(),
                        r.modeled_latency_ms(),
                        static_cast<long long>(r.profiler.kernel_launches),
                        static_cast<long long>(r.profiler.barriers));
            if (r.modeled_latency_ms() < best) {
              best = r.modeled_latency_ms();
              best_desc = desc;
            }
          }
        }
      }
    }
  }
  std::printf("\nBest schedule (manual sweep): %s  (%.4f ms)\n",
              best_desc.c_str(), best);

  // The grid-search auto-tuner (§6) explores the same space — plus
  // deeper unrolling and refactoring — over the deterministic device
  // model, excluding the schedule-independent linearization time.
  const linearizer::Linearized lin = linearizer::linearize_trees(
      raw, linearizer::LinearizerSpec{});
  const exec::TuneResult tuned =
      exec::autotune(def, lin, runtime::DeviceSpec::v100_gpu());
  std::printf("Auto-tuner:                   %s\n",
              tuned.summary().c_str());
  return 0;
}
