// Quickstart: the paper's Fig. 1 running example end to end.
//
// Builds the parse tree for "It is a dog .", expresses the treeRNN model
// in the Recursive API, lowers it (dynamic batching + leaf
// specialization, Listing 2), prints the generated ILIR and the C++
// target code of the schedule-optimized program (exec::compile_ilir),
// and runs inference on the Cortex engine and the PyTorch-like eager
// baseline.
//
//   $ ./example_quickstart

#include <cstdio>

#include "baselines/eager.hpp"
#include "ds/tree.hpp"
#include "exec/cost_model.hpp"
#include "exec/ilir_runner.hpp"
#include "ilir/codegen_c.hpp"
#include "models/model_zoo.hpp"

using namespace cortex;

int main() {
  // -- 1. the input structure: the parse tree of "It is a dog." --------------
  // ((It (is (a dog))) .) with word ids 0..4.
  ds::Tree tree;
  ds::TreeNode* it_ = tree.make_leaf(0);
  ds::TreeNode* is_ = tree.make_leaf(1);
  ds::TreeNode* a_ = tree.make_leaf(2);
  ds::TreeNode* dog = tree.make_leaf(3);
  ds::TreeNode* dot = tree.make_leaf(4);
  ds::TreeNode* np = tree.make_internal(a_, dog);
  ds::TreeNode* vp = tree.make_internal(is_, np);
  ds::TreeNode* s = tree.make_internal(it_, vp);
  tree.set_root(tree.make_internal(s, dot));

  // -- 2. the model in the Recursive API (Listing 1) --------------------------
  const std::int64_t hidden = 8;  // small so the printouts stay readable
  const models::ModelDef def = models::make_treernn_fig1(hidden);
  std::printf("Model: %s  (h = tanh(h_left + h_right); leaves are "
              "embeddings)\n\n", def.name.c_str());
  std::printf("RA operators:\n");
  for (const ra::OpRef& op : def.model->topo_ops())
    std::printf("  %s\n", ra::to_string(op).c_str());

  // -- 3. compile: schedule + lowering to ILIR (Listing 2) --------------------
  ra::Schedule schedule;  // dynamic_batch(rnn); specialize(isleaf(n))
  Rng rng(2024);
  const models::ModelParams params = models::init_params(def, rng);
  const runtime::DeviceSpec spec = runtime::DeviceSpec::v100_gpu();
  exec::CortexEngine engine(def, params, schedule, spec);
  // The modeled kernel-launch plan the cost model charges (offline).
  std::printf("\nSchedule: %s\nPlan: %s\n\n",
              ra::to_string(schedule).c_str(),
              exec::build_plan(def, schedule, spec).describe().c_str());
  const exec::CompiledIlir compiled = exec::compile_ilir(*def.model, schedule);
  std::printf("Generated ILIR:\n%s\n",
              ilir::to_string(compiled.lowered.program).c_str());
  std::printf("Generated C++ target code (optimized ILIR):\n%s\n",
              ilir::codegen_c(compiled.optimized).c_str());

  // -- 4. run -------------------------------------------------------------------
  std::vector<const ds::Tree*> batch = {&tree};
  // The served run returns the root states and measured host times; the
  // modeled GPU cost of the same linearization is computed offline.
  double lin_ns = 0.0;
  const linearizer::Linearized lin = engine.linearize(batch, lin_ns);
  const runtime::RunResult r = engine.run_linearized(lin, lin_ns);
  const runtime::RunResult cost = exec::model_cost(engine, lin, lin_ns);
  std::printf("Root state (first %lld elems):", static_cast<long long>(
                                                    hidden));
  for (float v : r.root_states.front()) std::printf(" %+.4f", v);
  std::printf("\nModeled GPU inference latency: %.1f us "
              "(%lld kernel launch, %lld barriers)\n",
              cost.modeled_latency_ms() * 1e3,
              static_cast<long long>(cost.profiler.kernel_launches),
              static_cast<long long>(cost.profiler.barriers));

  baselines::EagerEngine eager(def, params, spec);
  const runtime::RunResult e = eager.run(batch);
  std::printf("PyTorch-like eager latency:    %.1f us "
              "(%lld kernel launches)\n",
              e.modeled_latency_ms() * 1e3,
              static_cast<long long>(e.profiler.kernel_launches));
  std::printf("Outputs match: %s\n",
              r.root_states == e.root_states ? "yes" : "NO");
  return 0;
}
