// Schedule fuzzing: randomly drawn *legal* schedules must (a) compile —
// the engine, and the offline ILIR pipeline, whose static verifier runs
// after every pass — (b) produce exactly the
// reference numerics, and (c) satisfy the basic modeled-cost invariants —
// for every model kind. This is the property backing the paper's premise
// that scheduling is a pure performance decision, never a semantics
// decision.

#include <gtest/gtest.h>

#include "baselines/common.hpp"
#include "ds/generators.hpp"
#include "exec/cost_model.hpp"
#include "exec/ilir_runner.hpp"
#include "models/model_zoo.hpp"

namespace cortex::exec {
namespace {

ra::Schedule random_schedule(Rng& rng, bool dag_model) {
  ra::Schedule s;
  s.dynamic_batching = rng.next_below(2) == 0;
  s.specialize_leaves = rng.next_below(2) == 0;
  s.fusion = rng.next_below(2) == 0 ? ra::FusionLevel::kMaximal
                                    : ra::FusionLevel::kNone;
  s.persistence = rng.next_below(2) == 0;
  s.lock_free_barrier = rng.next_below(2) == 0;
  if (!dag_model) {
    s.refactor = rng.next_below(3) == 0;
    if (rng.next_below(3) == 0) {
      s.unroll_depth = 2;
      s.persistence = false;  // Appendix D
    }
  }
  return s;
}

class ScheduleFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ScheduleFuzz, TreeModelNumericsScheduleInvariant) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const models::ModelDef def = models::make_treegru_embed(12);
  const models::ModelParams params = models::init_params(def, rng);
  auto trees = ds::make_sst_like_batch(3, rng);
  const linearizer::Linearized lin = linearizer::linearize_trees(
      baselines::raw(trees), linearizer::LinearizerSpec{});

  CortexEngine reference(def, params, ra::Schedule{},
                         runtime::DeviceSpec::v100_gpu());
  const auto ref = reference.run_linearized(lin, 0.0).root_states;

  for (int draw = 0; draw < 4; ++draw) {
    const ra::Schedule s = random_schedule(rng, /*dag_model=*/false);
    CortexEngine engine(def, params, s, runtime::DeviceSpec::v100_gpu());
    EXPECT_NO_THROW(compile_ilir(*def.model, s)) << ra::to_string(s);
    EXPECT_EQ(engine.run_linearized(lin, 0.0).root_states, ref)
        << ra::to_string(s);
    const runtime::RunResult cost = model_cost(engine, lin, 0.0);
    EXPECT_GE(cost.profiler.kernel_launches, 1) << ra::to_string(s);
    EXPECT_GT(cost.profiler.modeled_latency_ns(), 0.0) << ra::to_string(s);
    EXPECT_GT(cost.peak_memory_bytes, 0) << ra::to_string(s);
  }
}

TEST_P(ScheduleFuzz, DagModelNumericsScheduleInvariant) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  const models::ModelDef def = models::make_dagrnn(12);
  const models::ModelParams params = models::init_params(def, rng);
  std::vector<std::unique_ptr<ds::Dag>> dags;
  for (int i = 0; i < 3; ++i) dags.push_back(ds::make_grid_dag(5, 5, rng));
  linearizer::LinearizerSpec spec;
  spec.kind = linearizer::StructureKind::kDag;
  const linearizer::Linearized lin =
      linearizer::linearize_dags(baselines::raw(dags), spec);

  CortexEngine reference(def, params, ra::Schedule{},
                         runtime::DeviceSpec::v100_gpu());
  const auto ref = reference.run_linearized(lin, 0.0).root_states;

  for (int draw = 0; draw < 4; ++draw) {
    const ra::Schedule s = random_schedule(rng, /*dag_model=*/true);
    CortexEngine engine(def, params, s, runtime::DeviceSpec::v100_gpu());
    EXPECT_NO_THROW(compile_ilir(*def.model, s)) << ra::to_string(s);
    EXPECT_EQ(engine.run_linearized(lin, 0.0).root_states, ref)
        << ra::to_string(s);
  }
}

TEST_P(ScheduleFuzz, BackendChoiceNeverChangesNumerics) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 5);
  const models::ModelDef def = models::make_treelstm_embed(8);
  const models::ModelParams params = models::init_params(def, rng);
  auto trees = ds::make_sst_like_batch(2, rng);
  const linearizer::Linearized lin = linearizer::linearize_trees(
      baselines::raw(trees), linearizer::LinearizerSpec{});

  std::vector<std::vector<float>> ref;
  for (const runtime::Backend b :
       {runtime::Backend::kGpu, runtime::Backend::kIntel,
        runtime::Backend::kArm}) {
    CortexEngine engine(def, params, ra::Schedule{},
                        runtime::DeviceSpec::for_backend(b));
    const auto out = engine.run_linearized(lin, 0.0).root_states;
    if (ref.empty())
      ref = out;
    else
      EXPECT_EQ(out, ref);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleFuzz, ::testing::Range(0, 8));

}  // namespace
}  // namespace cortex::exec
