// End-to-end smoke tests: the full pipeline (RA model -> lowering -> ILIR
// evaluation) and the execution engine agree with the eager baseline on
// the running example. Deeper per-module coverage lives in the other
// test files.

#include <gtest/gtest.h>

#include "baselines/eager.hpp"
#include "ds/generators.hpp"
#include "exec/cost_model.hpp"
#include "exec/ilir_runner.hpp"
#include "models/model_zoo.hpp"

namespace cortex {
namespace {

TEST(PipelineSmoke, EngineMatchesEagerOnFig1Model) {
  const models::ModelDef def = models::make_treernn_fig1(16);
  Rng rng(7);
  const models::ModelParams params = models::init_params(def, rng);
  auto trees = ds::make_sst_like_batch(4, rng);
  std::vector<const ds::Tree*> raw = baselines::raw(trees);

  exec::CortexEngine engine(def, params, ra::Schedule{},
                            runtime::DeviceSpec::v100_gpu());
  baselines::EagerEngine eager(def, params, runtime::DeviceSpec::v100_gpu());

  const runtime::RunResult a = engine.run(raw);
  const runtime::RunResult b = eager.run(raw);
  ASSERT_EQ(a.root_states.size(), b.root_states.size());
  for (std::size_t t = 0; t < a.root_states.size(); ++t)
    for (std::size_t i = 0; i < a.root_states[t].size(); ++i)
      EXPECT_NEAR(a.root_states[t][i], b.root_states[t][i], 1e-5f)
          << "tree " << t << " elem " << i;
}

TEST(PipelineSmoke, IlirEvaluatorMatchesEngineOnFig1Model) {
  const models::ModelDef def = models::make_treernn_fig1(16);
  Rng rng(11);
  const models::ModelParams params = models::init_params(def, rng);
  auto trees = ds::make_sst_like_batch(2, rng);
  std::vector<const ds::Tree*> raw = baselines::raw(trees);

  exec::CortexEngine engine(def, params, ra::Schedule{},
                            runtime::DeviceSpec::v100_gpu());
  const runtime::RunResult er = engine.run(raw);
  ASSERT_NE(engine.lowered(), nullptr);

  const linearizer::Linearized lin =
      linearizer::linearize_trees(raw, engine.lowered()->lin_spec);
  const exec::IlirRun ir =
      exec::run_ilir(engine.lowered()->program, lin, params);
  const Tensor& out = ir.at(engine.lowered()->output);
  EXPECT_TRUE(allclose(out, engine.last_states(), 1e-4f, 1e-4f));
  (void)er;
}

TEST(PipelineSmoke, CortexUsesOneKernelLaunchWithDefaultSchedule) {
  const models::ModelDef def = models::make_treelstm(32);
  Rng rng(3);
  const models::ModelParams params = models::init_params(def, rng);
  auto trees = ds::make_sst_like_batch(3, rng);

  const exec::CortexEngine engine(def, params, ra::Schedule{},
                                  runtime::DeviceSpec::v100_gpu());
  double lin_ns = 0.0;
  const runtime::RunResult r = exec::model_cost(
      engine, engine.linearize(baselines::raw(trees), lin_ns), lin_ns);
  // Table 6: persistence + maximal fusion => a single mega-kernel launch.
  EXPECT_EQ(r.profiler.kernel_launches, 1);
  EXPECT_EQ(r.profiler.memcpy_calls, 0);
  EXPECT_GT(r.profiler.barriers, 0);
}

}  // namespace
}  // namespace cortex
