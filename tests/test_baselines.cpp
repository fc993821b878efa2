// Baseline frameworks: every engine computes identical outputs (they
// share the cell kernels, as all frameworks shared vendor BLAS in the
// paper), while their runtime behaviour diverges exactly as Table 6 and
// Fig. 12 describe — graph construction, batching agendas, contiguity
// copies, launch counts and memory retention.

#include <gtest/gtest.h>

#include "baselines/cavs_like.hpp"
#include "baselines/common.hpp"
#include "baselines/dynet_like.hpp"
#include "baselines/eager.hpp"
#include "baselines/grnn_like.hpp"
#include "ds/generators.hpp"
#include "exec/cost_model.hpp"
#include "models/model_zoo.hpp"

namespace cortex::baselines {
namespace {

runtime::DeviceSpec gpu() { return runtime::DeviceSpec::v100_gpu(); }

/// Cortex's modeled cost over `batch` (exec::model_cost), linearization
/// time included as a run measures it.
runtime::RunResult cortex_cost(const exec::CortexEngine& engine,
                               const std::vector<const ds::Tree*>& batch) {
  double lin_ns = 0.0;
  const linearizer::Linearized lin = engine.linearize(batch, lin_ns);
  return exec::model_cost(engine, lin, lin_ns);
}

struct Fixture {
  models::ModelDef def;
  models::ModelParams params;
  std::vector<std::unique_ptr<ds::Tree>> trees;
  std::vector<const ds::Tree*> batch;

  explicit Fixture(models::ModelDef d, std::int64_t n = 6, std::uint64_t seed = 33)
      : def(std::move(d)) {
    Rng rng(seed);
    params = models::init_params(def, rng);
    trees = ds::make_sst_like_batch(n, rng);
    batch = raw(trees);
  }
};

TEST(Baselines, AllFrameworksProduceIdenticalOutputs) {
  Fixture s(models::make_treelstm_embed(16));
  exec::CortexEngine cortex_engine(s.def, s.params, ra::Schedule{}, gpu());
  EagerEngine eager(s.def, s.params, gpu());
  DynetEngine dynet(s.def, s.params, gpu());
  CavsEngine cavs(s.def, s.params, gpu());

  const auto ref = cortex_engine.run(s.batch).root_states;
  EXPECT_EQ(eager.run(s.batch).root_states, ref);
  EXPECT_EQ(dynet.run(s.batch).root_states, ref);
  EXPECT_EQ(cavs.run(s.batch).root_states, ref);
}

TEST(Baselines, DagModelsAgreeAcrossFrameworks) {
  Rng rng(44);
  const models::ModelDef def = models::make_dagrnn(16);
  const models::ModelParams params = models::init_params(def, rng);
  std::vector<std::unique_ptr<ds::Dag>> dags;
  for (int i = 0; i < 4; ++i) dags.push_back(ds::make_grid_dag(5, 5, rng));
  const auto batch = raw(dags);

  exec::CortexEngine cortex_engine(def, params, ra::Schedule{}, gpu());
  EagerEngine eager(def, params, gpu());
  DynetEngine dynet(def, params, gpu());
  const auto ref = cortex_engine.run(batch).root_states;
  EXPECT_EQ(eager.run(batch).root_states, ref);
  EXPECT_EQ(dynet.run(batch).root_states, ref);
}

// -- Table 6 structure ---------------------------------------------------------------

TEST(Baselines, Table6OverheadStructure) {
  Fixture s(models::make_treelstm(64), 10);
  exec::CortexEngine cortex_engine(s.def, s.params, ra::Schedule{}, gpu());
  EagerEngine eager(s.def, s.params, gpu());
  DynetEngine dynet(s.def, s.params, gpu());
  CavsEngine cavs(s.def, s.params, gpu());

  const runtime::RunResult rc = cortex_cost(cortex_engine, s.batch);
  const runtime::RunResult re = eager.run(s.batch);
  const runtime::RunResult rd = dynet.run(s.batch);
  const runtime::RunResult rv = cavs.run(s.batch);

  // Kernel-launch ordering: PyTorch >> DyNet > Cavs >> Cortex (= 1).
  EXPECT_EQ(rc.profiler.kernel_launches, 1);
  EXPECT_GT(rv.profiler.kernel_launches, rc.profiler.kernel_launches);
  EXPECT_GT(rd.profiler.kernel_launches, rv.profiler.kernel_launches);
  EXPECT_GT(re.profiler.kernel_launches, rd.profiler.kernel_launches);

  // Only DyNet constructs a runtime dataflow graph.
  EXPECT_GT(rd.profiler.graph_construction_ns, 0.0);
  EXPECT_EQ(rv.profiler.graph_construction_ns, 0.0);
  EXPECT_EQ(rc.profiler.graph_construction_ns, 0.0);

  // DyNet and Cavs batch at runtime; Cortex batches in the linearizer.
  EXPECT_GT(rd.profiler.dynamic_batching_ns, 0.0);
  EXPECT_GT(rv.profiler.dynamic_batching_ns, 0.0);
  EXPECT_EQ(rc.profiler.dynamic_batching_ns, 0.0);
  EXPECT_GT(rc.profiler.linearization_ns, 0.0);

  // Contiguity copies: vendor-library frameworks only.
  EXPECT_GT(rd.profiler.memcpy_calls, 0);
  EXPECT_GT(rv.profiler.memcpy_calls, 0);
  EXPECT_EQ(rc.profiler.memcpy_calls, 0);
  EXPECT_EQ(re.profiler.memcpy_calls, 0);  // eager never batches

  // End-to-end: Cortex < Cavs < DyNet < PyTorch.
  EXPECT_LT(rc.modeled_latency_ms(), rv.modeled_latency_ms());
  EXPECT_LT(rv.modeled_latency_ms(), rd.modeled_latency_ms());
  EXPECT_LT(rd.modeled_latency_ms(), re.modeled_latency_ms());
}

TEST(Baselines, DynetKernelCountMatchesGroupStructure) {
  // Groups = (#levels x ops-per-branch) summed over leaf/internal
  // signatures: for a perfect tree every level is one group per op.
  Rng rng(55);
  const models::ModelDef def = models::make_treelstm(16);
  const models::ModelParams params = models::init_params(def, rng);
  auto tree = ds::make_perfect_tree(4, rng);  // heights 0..4
  std::vector<const ds::Tree*> batch = {tree.get()};
  DynetEngine dynet(def, params, gpu());
  const runtime::RunResult r = dynet.run(batch);
  const auto internal_ops =
      static_cast<std::int64_t>(def.cell.internal_ops.size());
  const auto leaf_ops =
      static_cast<std::int64_t>(def.cell.leaf_ops.size());
  EXPECT_EQ(r.profiler.kernel_launches, 4 * internal_ops + leaf_ops);
}

TEST(Baselines, CavsEltwiseFusionReducesLaunches) {
  Fixture s(models::make_treelstm(32), 6, 77);
  CavsEngine fused(s.def, s.params, gpu(), {/*fuse_eltwise=*/true});
  CavsEngine unfused(s.def, s.params, gpu(), {/*fuse_eltwise=*/false});
  const auto with = fused.run(s.batch);
  const auto without = unfused.run(s.batch);
  EXPECT_LT(with.profiler.kernel_launches,
            without.profiler.kernel_launches);
  EXPECT_EQ(with.root_states, without.root_states);
}

// -- Fig. 12 memory ordering -----------------------------------------------------------

TEST(Baselines, MemoryOrderingMatchesFig12) {
  Fixture s(models::make_treelstm(64), 10, 88);
  exec::CortexEngine cortex_engine(s.def, s.params, ra::Schedule{}, gpu());
  EagerEngine eager(s.def, s.params, gpu());
  DynetEngine dynet(s.def, s.params, gpu());
  DynetEngine dynet_inf(s.def, s.params, gpu(),
                        {/*inference_memory=*/true});
  CavsEngine cavs(s.def, s.params, gpu());

  const auto m_eager = eager.run(s.batch).peak_memory_bytes;
  const auto m_cortex = cortex_cost(cortex_engine, s.batch).peak_memory_bytes;
  const auto m_dynet = dynet.run(s.batch).peak_memory_bytes;
  const auto m_dynet_inf = dynet_inf.run(s.batch).peak_memory_bytes;
  const auto m_cavs = cavs.run(s.batch).peak_memory_bytes;

  EXPECT_LT(m_eager, m_cortex);
  EXPECT_LT(m_cortex, m_dynet_inf);
  EXPECT_LT(m_dynet_inf, m_dynet);
  EXPECT_GE(m_cavs, m_dynet_inf);
}

// -- GRNN (Fig. 9) -----------------------------------------------------------------------

TEST(Grnn, MatchesCortexOutputsOnChains) {
  Rng rng(99);
  const models::ModelDef def = models::make_seq_lstm(16);
  const models::ModelParams params = models::init_params(def, rng);
  std::vector<std::unique_ptr<ds::Tree>> chains;
  for (int i = 0; i < 3; ++i)
    chains.push_back(ds::make_chain_tree(20, rng));
  const auto batch = raw(chains);

  exec::CortexEngine engine(def, params, ra::Schedule{}, gpu());
  const auto ref = engine.run(batch).root_states;
  const runtime::RunResult g = run_grnn(def, params, batch, gpu());
  EXPECT_EQ(g.root_states, ref);
  EXPECT_EQ(g.profiler.kernel_launches, 1);  // persistent kernel
}

TEST(Grnn, LockFreeBarrierBeatsLockBased) {
  Rng rng(100);
  const models::ModelDef def = models::make_seq_gru(32);
  const models::ModelParams params = models::init_params(def, rng);
  std::vector<std::unique_ptr<ds::Tree>> chains;
  chains.push_back(ds::make_chain_tree(50, rng));
  const auto batch = raw(chains);

  const auto free_ms =
      run_grnn(def, params, batch, gpu(), {true, false}).modeled_latency_ms();
  const auto locked_ms =
      run_grnn(def, params, batch, gpu(), {false, false}).modeled_latency_ms();
  EXPECT_LT(free_ms, locked_ms);
}

TEST(Grnn, GruRefactoringHalvesBarriers) {
  Rng rng(101);
  const models::ModelDef def = models::make_seq_gru(32);
  const models::ModelParams params = models::init_params(def, rng);
  std::vector<std::unique_ptr<ds::Tree>> chains;
  chains.push_back(ds::make_chain_tree(40, rng));
  const auto batch = raw(chains);

  const auto plain = run_grnn(def, params, batch, gpu(), {true, false});
  const auto refactored =
      run_grnn(def, params, batch, gpu(), {true, true});
  EXPECT_EQ(plain.profiler.barriers, 2 * refactored.profiler.barriers);
  EXPECT_EQ(plain.root_states, refactored.root_states);
}

TEST(Grnn, RejectsOversizedWeights) {
  Rng rng(102);
  const models::ModelDef def = models::make_seq_lstm(1024);  // > on-chip
  const models::ModelParams params = models::init_params(def, rng);
  std::vector<std::unique_ptr<ds::Tree>> chains;
  chains.push_back(ds::make_chain_tree(5, rng));
  const auto batch = raw(chains);
  EXPECT_THROW(run_grnn(def, params, batch, gpu()), Error);
}

// -- eager specifics ------------------------------------------------------------------------

TEST(Eager, LaunchCountIsPerOpPerNode) {
  Rng rng(103);
  const models::ModelDef def = models::make_treernn_fig1(8);
  const models::ModelParams params = models::init_params(def, rng);
  auto tree = ds::make_perfect_tree(3, rng);  // 8 leaves, 7 internal
  std::vector<const ds::Tree*> batch = {tree.get()};
  EagerEngine eager(def, params, gpu());
  const runtime::RunResult r = eager.run(batch);
  const auto expected =
      8 * static_cast<std::int64_t>(def.cell.leaf_ops.size()) +
      7 * static_cast<std::int64_t>(def.cell.internal_ops.size());
  EXPECT_EQ(r.profiler.kernel_launches, expected);
  EXPECT_GT(r.profiler.host_other_ns, 0.0);  // dispatch overhead
}

TEST(Eager, FrontierMemoryIndependentOfBatchWidth) {
  // Eager releases children after the parent: peak tracks tree depth,
  // not batch size (each tree processed alone).
  Rng rng(104);
  const models::ModelDef def = models::make_treelstm(32);
  const models::ModelParams params = models::init_params(def, rng);
  auto one = ds::make_perfect_tree(5, rng);
  std::vector<const ds::Tree*> single = {one.get()};
  std::vector<std::unique_ptr<ds::Tree>> many;
  for (int i = 0; i < 10; ++i)
    many.push_back(ds::make_perfect_tree(5, rng));

  EagerEngine eager(def, params, gpu());
  const auto m1 = eager.run(single).peak_memory_bytes;
  const auto m10 = eager.run(raw(many)).peak_memory_bytes;
  // Root states of completed trees stay live, so growth is ~10 state
  // vectors — far below 10x the single-tree peak.
  EXPECT_LT(m10, 2 * m1);
}

}  // namespace
}  // namespace cortex::baselines
