// CortexEngine: cross-framework numeric equality, schedule-invariant
// numerics, and the modeled device cost of its plans (exec::model_cost)
// that drives every table/figure — launch counts, barrier counts,
// persistence, unrolling and refactoring effects, memory footprints.
// Modeled quantities are asserted exactly (model_cost with zero
// linearization time is deterministic).

#include <gtest/gtest.h>

#include "baselines/common.hpp"
#include "baselines/eager.hpp"
#include "ds/generators.hpp"
#include "exec/cost_model.hpp"
#include "models/model_zoo.hpp"

namespace cortex::exec {
namespace {

runtime::DeviceSpec gpu() { return runtime::DeviceSpec::v100_gpu(); }

/// Deterministic run: pre-linearized, zero host-linearization time.
runtime::RunResult run_det(CortexEngine& engine,
                           const linearizer::Linearized& lin) {
  return engine.run_linearized(lin, 0.0);
}

/// Modeled device cost of one inference of `engine` over `lin`, with zero
/// host-linearization time.
runtime::RunResult cost(const CortexEngine& engine,
                        const linearizer::Linearized& lin) {
  return model_cost(engine, lin, 0.0);
}

linearizer::Linearized lin_for(const models::ModelDef& def,
                               std::int64_t batch, std::uint64_t seed) {
  Rng rng(seed);
  linearizer::LinearizerSpec spec;
  spec.kind = def.kind();
  if (spec.kind == linearizer::StructureKind::kDag) {
    std::vector<std::unique_ptr<ds::Dag>> dags;
    for (std::int64_t b = 0; b < batch; ++b)
      dags.push_back(ds::make_grid_dag(6, 6, rng));
    return linearizer::linearize_dags(baselines::raw(dags), spec);
  }
  auto trees = ds::make_sst_like_batch(batch, rng);
  return linearizer::linearize_trees(baselines::raw(trees), spec);
}

// -- numeric equivalence across engines and schedules ----------------------------

class EngineModels : public ::testing::TestWithParam<int> {
 protected:
  models::ModelDef def() const {
    switch (GetParam()) {
      case 0: return models::make_treernn_fig1(16);
      case 1: return models::make_treefc_embed(16);
      case 2: return models::make_treegru_embed(16);
      case 3: return models::make_treelstm_embed(16);
      case 4: return models::make_mvrnn(8);
      default: return models::make_treernn(16);
    }
  }
};

TEST_P(EngineModels, MatchesEagerBaselineExactly) {
  const models::ModelDef def = this->def();
  Rng rng(41);
  const models::ModelParams params = models::init_params(def, rng);
  auto trees = ds::make_sst_like_batch(5, rng);
  const auto raw = baselines::raw(trees);

  CortexEngine engine(def, params, ra::Schedule{}, gpu());
  baselines::EagerEngine eager(def, params, gpu());
  // Same cell kernels in the same order: outputs are bit-identical.
  EXPECT_EQ(engine.run(raw).root_states, eager.run(raw).root_states);
}

TEST_P(EngineModels, SchedulesNeverChangeResults) {
  const models::ModelDef def = this->def();
  Rng rng(42);
  const models::ModelParams params = models::init_params(def, rng);
  const linearizer::Linearized lin = lin_for(def, 4, 42);

  std::vector<ra::Schedule> schedules;
  schedules.push_back(ra::Schedule{});
  schedules.push_back(ra::Schedule::unoptimized());
  schedules.push_back(ra::Schedule::cavs_comparable());
  {
    ra::Schedule s;
    s.dynamic_batching = false;
    schedules.push_back(s);
  }
  {
    ra::Schedule s;
    s.unroll_depth = 2;
    s.persistence = false;
    schedules.push_back(s);
  }

  std::vector<std::vector<float>> reference;
  for (const ra::Schedule& s : schedules) {
    CortexEngine engine(def, params, s, gpu());
    const runtime::RunResult r = run_det(engine, lin);
    if (reference.empty())
      reference = r.root_states;
    else
      EXPECT_EQ(r.root_states, reference) << ra::to_string(s);
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, EngineModels, ::testing::Range(0, 6));

// -- Table 6 accounting ------------------------------------------------------------

TEST(EngineAccounting, DefaultScheduleIsOneMegakernelLaunch) {
  const models::ModelDef def = models::make_treelstm(32);
  Rng rng(1);
  const models::ModelParams params = models::init_params(def, rng);
  const linearizer::Linearized lin = lin_for(def, 10, 7);

  CortexEngine engine(def, params, ra::Schedule{}, gpu());
  const runtime::RunResult r = cost(engine, lin);
  EXPECT_EQ(r.profiler.kernel_launches, 1);
  EXPECT_EQ(r.profiler.memcpy_calls, 0);
  EXPECT_EQ(r.profiler.graph_construction_ns, 0.0);
  EXPECT_EQ(r.profiler.dynamic_batching_ns, 0.0);
  // One barrier per internal batch (sync_points_per_step == 1).
  EXPECT_EQ(r.profiler.barriers, lin.num_batches() - 1);
}

TEST(EngineAccounting, UnfusedScheduleLaunchesPerOpPerBatch) {
  const models::ModelDef def = models::make_treelstm(32);
  Rng rng(1);
  const models::ModelParams params = models::init_params(def, rng);
  const linearizer::Linearized lin = lin_for(def, 4, 9);

  CortexEngine engine(def, params, ra::Schedule::unoptimized(), gpu());
  const runtime::RunResult r = cost(engine, lin);
  // Leaf batch: leaf+internal ops (conditional form); internal batches:
  // one launch per combined-branch operator.
  const auto ops_per_step = static_cast<std::int64_t>(
      def.cell.internal_ops.size() + def.cell.leaf_ops.size());
  EXPECT_EQ(r.profiler.kernel_launches,
            ops_per_step * lin.num_batches());
  EXPECT_EQ(r.profiler.barriers, 0);  // kernel boundaries synchronize
}

TEST(EngineAccounting, NoBatchingLaunchesPerNode) {
  const models::ModelDef def = models::make_treernn_fig1(16);
  Rng rng(1);
  const models::ModelParams params = models::init_params(def, rng);
  const linearizer::Linearized lin = lin_for(def, 2, 5);

  ra::Schedule s;
  s.dynamic_batching = false;
  CortexEngine engine(def, params, s, gpu());
  const runtime::RunResult r = cost(engine, lin);
  // One fused launch per leaf + one per internal node.
  EXPECT_EQ(r.profiler.kernel_launches, lin.num_nodes);
}

TEST(EngineAccounting, PersistenceRemovesWeightRereads) {
  const models::ModelDef def = models::make_treelstm(64);
  Rng rng(2);
  const models::ModelParams params = models::init_params(def, rng);
  const linearizer::Linearized lin = lin_for(def, 10, 3);

  ra::Schedule with;
  ra::Schedule without;
  without.persistence = false;
  CortexEngine e_with(def, params, with, gpu());
  CortexEngine e_without(def, params, without, gpu());
  const runtime::RunResult r_with = cost(e_with, lin);
  const runtime::RunResult r_without = cost(e_without, lin);
  EXPECT_TRUE(build_plan(def, with, gpu()).persistent);
  EXPECT_FALSE(build_plan(def, without, gpu()).persistent);
  // Weights read once vs once per step: strictly less off-chip traffic,
  // strictly lower modeled latency. Launches identical (megakernel).
  EXPECT_LT(r_with.profiler.device_bytes_read,
            r_without.profiler.device_bytes_read);
  EXPECT_LT(r_with.profiler.modeled_latency_ns(),
            r_without.profiler.modeled_latency_ns());
  EXPECT_EQ(r_with.profiler.kernel_launches,
            r_without.profiler.kernel_launches);
}

TEST(EngineAccounting, PersistenceRequiresOnChipFit) {
  // A model whose weights exceed on-chip capacity cannot persist.
  const models::ModelDef def = models::make_treelstm(1024);  // ~21 MB
  EXPECT_FALSE(build_plan(def, ra::Schedule{}, gpu()).persistent);
}

TEST(EngineAccounting, SpecializationCollapsesLeafBatch) {
  const models::ModelDef def = models::make_treelstm(64);  // zero leaves
  Rng rng(4);
  const models::ModelParams params = models::init_params(def, rng);
  const linearizer::Linearized lin = lin_for(def, 10, 11);

  ra::Schedule spec;
  ra::Schedule cond = ra::Schedule::cavs_comparable();
  CortexEngine e_spec(def, params, spec, gpu());
  CortexEngine e_cond(def, params, cond, gpu());
  EXPECT_TRUE(build_plan(def, spec, gpu()).leaf_collapsed);
  EXPECT_FALSE(build_plan(def, cond, gpu()).leaf_collapsed);
  // §4.3: the collapsed leaf batch does no flops; the conditional form
  // pays the full internal computation over the (majority) leaves.
  const runtime::RunResult r_spec = cost(e_spec, lin);
  const runtime::RunResult r_cond = cost(e_cond, lin);
  EXPECT_LT(r_spec.profiler.device_flops, r_cond.profiler.device_flops);
  EXPECT_LT(r_spec.profiler.modeled_latency_ns(),
            r_cond.profiler.modeled_latency_ns());
}

TEST(EngineAccounting, SpecializationIsNoopForDagRnn) {
  const models::ModelDef def = models::make_dagrnn(32);
  Rng rng(5);
  const models::ModelParams params = models::init_params(def, rng);
  const linearizer::Linearized lin = lin_for(def, 4, 13);

  CortexEngine e_spec(def, params, ra::Schedule{}, gpu());
  CortexEngine e_cond(def, params, ra::Schedule::cavs_comparable(), gpu());
  const runtime::RunResult a = cost(e_spec, lin);
  const runtime::RunResult b = cost(e_cond, lin);
  // Single-formula model: identical cost either way (Fig. 10a).
  EXPECT_EQ(a.profiler.device_flops, b.profiler.device_flops);
  EXPECT_DOUBLE_EQ(a.profiler.modeled_latency_ns(),
                   b.profiler.modeled_latency_ns());
}

// -- Fig. 10b/10c properties as invariants ------------------------------------------

TEST(EngineAccounting, UnrollingHelpsBlockLocalHurtsBatched) {
  Rng rng(6);
  const linearizer::Linearized lin =
      lin_for(models::make_treernn(256), 10, 17);

  auto latency = [&](const models::ModelDef& def, std::int64_t depth) {
    Rng prng(6);
    const models::ModelParams params = models::init_params(def, prng);
    ra::Schedule s;
    s.unroll_depth = depth;
    if (depth > 1) s.persistence = false;  // Appendix D
    CortexEngine engine(def, params, s, gpu());
    return cost(engine, lin).profiler.modeled_latency_ns();
  };
  // TreeRNN (block-local): unrolling halves device-wide barriers.
  const models::ModelDef rnn = models::make_treernn(256);
  EXPECT_LT(latency(rnn, 2), latency(rnn, 1));
  // TreeLSTM (batched global schedule): unrolling multiplies barriers.
  const models::ModelDef lstm = models::make_treelstm(256);
  EXPECT_GT(latency(lstm, 2), latency(lstm, 1));
}

TEST(EngineAccounting, RefactoringHelpsSimpleGruOnly) {
  Rng rng(7);
  const linearizer::Linearized lin =
      lin_for(models::make_treegru(256), 10, 19);

  auto latency = [&](const models::ModelDef& def, bool refactor) {
    Rng prng(7);
    const models::ModelParams params = models::init_params(def, prng);
    ra::Schedule s;
    s.refactor = refactor;
    CortexEngine engine(def, params, s, gpu());
    return cost(engine, lin).profiler.modeled_latency_ns();
  };
  const models::ModelDef simple = models::make_simple_treegru(256);
  const models::ModelDef full = models::make_treegru(256);
  const double simple_gain =
      1.0 - latency(simple, true) / latency(simple, false);
  const double full_gain = 1.0 - latency(full, true) / latency(full, false);
  EXPECT_GT(simple_gain, 0.10);          // ~25% in Fig. 10c
  EXPECT_LT(std::abs(full_gain), 0.05);  // ~flat for TreeGRU
}

// -- memory -------------------------------------------------------------------------

TEST(EngineMemory, FusedFootprintBelowUnfused) {
  const models::ModelDef def = models::make_treelstm(64);
  Rng rng(8);
  const models::ModelParams params = models::init_params(def, rng);
  const linearizer::Linearized lin = lin_for(def, 10, 23);

  CortexEngine fused(def, params, ra::Schedule{}, gpu());
  CortexEngine unfused(def, params, ra::Schedule::unoptimized(), gpu());
  EXPECT_LT(cost(fused, lin).peak_memory_bytes,
            cost(unfused, lin).peak_memory_bytes);
}

TEST(EngineMemory, StateTableDominatesFusedFootprint) {
  const models::ModelDef def = models::make_treelstm(64);
  Rng rng(9);
  const models::ModelParams params = models::init_params(def, rng);
  const linearizer::Linearized lin = lin_for(def, 4, 29);
  CortexEngine engine(def, params, ra::Schedule{}, gpu());
  const runtime::RunResult r = cost(engine, lin);
  const std::int64_t state_bytes =
      lin.num_nodes * def.cell.state_width * 4;
  EXPECT_GE(r.peak_memory_bytes, state_bytes);
  EXPECT_LT(r.peak_memory_bytes, 2 * state_bytes);
}

// -- misc ---------------------------------------------------------------------------

TEST(Engine, LastStatesExposesAllNodes) {
  const models::ModelDef def = models::make_treernn_fig1(8);
  Rng rng(10);
  const models::ModelParams params = models::init_params(def, rng);
  const linearizer::Linearized lin = lin_for(def, 3, 31);
  CortexEngine engine(def, params, ra::Schedule{}, gpu());
  const runtime::RunResult r = run_det(engine, lin);
  EXPECT_EQ(engine.last_states().shape(),
            (Shape{lin.num_nodes, def.cell.state_width}));
  ASSERT_EQ(r.root_states.size(), lin.roots.size());
  for (std::size_t i = 0; i < lin.roots.size(); ++i)
    EXPECT_EQ(r.root_states[i][0],
              engine.last_states().at(lin.roots[i], 0));
}

TEST(Engine, RejectsIllegalScheduleAtConstruction) {
  const models::ModelDef def = models::make_dagrnn(16);
  Rng rng(11);
  const models::ModelParams params = models::init_params(def, rng);
  ra::Schedule s;
  s.unroll_depth = 2;
  s.persistence = false;
  EXPECT_THROW(CortexEngine(def, params, s, gpu()), Error);
}

TEST(Plan, ConcurrentWidthSumsReductionOps) {
  const models::ModelDef lstm = models::make_treelstm(64);
  // 5 gate matvecs of width 64 each.
  EXPECT_EQ(concurrent_width(lstm.cell.internal_ops,
                             lstm.cell.state_width),
            5 * 64 + 0);
  const models::ModelDef fig1 = models::make_treernn_fig1(64);
  // Elementwise-only: falls back to the state width.
  EXPECT_EQ(concurrent_width(fig1.cell.internal_ops,
                             fig1.cell.state_width),
            64);
}

TEST(Plan, MvRnnSpillsOnGpuNotOnIntel) {
  // Appendix D: MV-RNN's per-node register footprint exceeds the GPU's
  // per-block scratch, so its fused kernels spill intermediates.
  const models::ModelDef def = models::make_mvrnn(64);
  const Plan gpu_plan = build_plan(def, ra::Schedule{}, gpu());
  EXPECT_NE(gpu_plan.internal_step.front().label.find("spill"),
            std::string::npos);
  const Plan intel_plan =
      build_plan(def, ra::Schedule{}, runtime::DeviceSpec::intel_cpu());
  EXPECT_EQ(intel_plan.internal_step.front().label.find("spill"),
            std::string::npos);
  // TreeLSTM fits on-chip at both hidden sizes: never spills.
  const models::ModelDef lstm = models::make_treelstm(512);
  const Plan lstm_plan = build_plan(lstm, ra::Schedule{}, gpu());
  EXPECT_EQ(lstm_plan.internal_step.front().label.find("spill"),
            std::string::npos);
}

}  // namespace
}  // namespace cortex::exec
