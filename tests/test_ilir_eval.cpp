// ILIR evaluation: the lowered programs compute exactly what the shared
// cell semantics compute, across schedules (specialized / conditional /
// unbatched), structures (trees, forests, DAGs) and models. This is the
// compiler's end-to-end correctness argument.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "baselines/common.hpp"
#include "ds/generators.hpp"
#include "exec/ilir_runner.hpp"
#include "ilir/passes.hpp"
#include "lowering/lower.hpp"
#include "models/model_zoo.hpp"

namespace cortex {
namespace {

void expect_ilir_matches_cell(const models::ModelDef& def,
                              const ra::Schedule& sched, std::uint64_t seed,
                              std::int64_t batch) {
  Rng rng(seed);
  const models::ModelParams params = models::init_params(def, rng);
  const lowering::LoweredModel lm = lowering::lower(*def.model, sched);

  linearizer::Linearized lin;
  if (def.model->kind == linearizer::StructureKind::kDag) {
    std::vector<std::unique_ptr<ds::Dag>> dags;
    for (std::int64_t b = 0; b < batch; ++b)
      dags.push_back(ds::make_grid_dag(4, 4, rng));
    lin = linearizer::linearize_dags(baselines::raw(dags), lm.lin_spec);
  } else {
    auto trees = ds::make_sst_like_batch(batch, rng);
    lin = linearizer::linearize_trees(baselines::raw(trees), lm.lin_spec);
  }

  const exec::IlirRun run = exec::run_ilir(lm.program, lin, params);
  const Tensor ref = baselines::compute_states(def, params, lin).states;
  EXPECT_TRUE(allclose(run.at(lm.output), ref, 2e-3f, 2e-3f))
      << def.name << " under " << ra::to_string(sched)
      << ": max diff = " << max_abs_diff(run.at(lm.output), ref);
}

// -- schedule sweep on the running example --------------------------------------

// Parameter: (specialize_leaves, dynamic_batching). A tuple of bools, which
// GTest prints by value, keeps the listed test names stable; a struct with a
// `const char*` member is printed byte by byte, pointer included, so its
// names would carry load-address bits that change from run to run.
class ScheduleParity
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {
 protected:
  static ra::Schedule schedule() {
    ra::Schedule s;
    s.specialize_leaves = std::get<0>(GetParam());
    s.dynamic_batching = std::get<1>(GetParam());
    return s;
  }
};

TEST_P(ScheduleParity, Fig1ModelMatchesCellSemantics) {
  expect_ilir_matches_cell(models::make_treernn_fig1(16), schedule(), 11, 4);
}

TEST_P(ScheduleParity, TreeLstmEmbedMatchesCellSemantics) {
  expect_ilir_matches_cell(models::make_treelstm_embed(8), schedule(), 13, 3);
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, ScheduleParity,
    ::testing::Values(std::make_tuple(true, true), std::make_tuple(false, true),
                      std::make_tuple(true, false),
                      std::make_tuple(false, false)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "spec" : "cond") +
             (std::get<1>(info.param) ? "_batch" : "_seq");
    });

// -- model zoo sweep --------------------------------------------------------------

TEST(IlirEval, TreeRnnWeighted) {
  expect_ilir_matches_cell(models::make_treernn(12), ra::Schedule{}, 3, 3);
}

TEST(IlirEval, TreeRnnZeroLeafConstantPropagation) {
  expect_ilir_matches_cell(models::make_treernn_zeroleaf(12),
                           ra::Schedule{}, 4, 3);
}

TEST(IlirEval, TreeFcHoistedLeaves) {
  expect_ilir_matches_cell(models::make_treefc(8), ra::Schedule{}, 5, 3);
}

TEST(IlirEval, TreeFcEmbedLeaves) {
  expect_ilir_matches_cell(models::make_treefc_embed(8), ra::Schedule{}, 6,
                           3);
}

TEST(IlirEval, TreeGru) {
  expect_ilir_matches_cell(models::make_treegru(8), ra::Schedule{}, 7, 2);
}

TEST(IlirEval, TreeGruEmbed) {
  expect_ilir_matches_cell(models::make_treegru_embed(8), ra::Schedule{}, 8,
                           2);
}

TEST(IlirEval, SimpleTreeGru) {
  expect_ilir_matches_cell(models::make_simple_treegru(8), ra::Schedule{},
                           9, 2);
}

TEST(IlirEval, TreeLstmZeroLeaf) {
  expect_ilir_matches_cell(models::make_treelstm(8), ra::Schedule{}, 10, 2);
}

TEST(IlirEval, DagRnnOnGrids) {
  expect_ilir_matches_cell(models::make_dagrnn(8), ra::Schedule{}, 12, 2);
}

TEST(IlirEval, MvRnnWithMatrixStates) {
  // Small H: the per-node HxH matrix makes the interpreter O(H^3)/node.
  expect_ilir_matches_cell(models::make_mvrnn(6), ra::Schedule{}, 14, 2);
}

// -- barrier execution counts (§A.4) ----------------------------------------------

TEST(IlirEval, ImprovedBarrierPlacementExecutesFewerBarriers) {
  const models::ModelDef def = models::make_treernn_fig1(8);
  Rng rng(21);
  const models::ModelParams params = models::init_params(def, rng);
  const lowering::LoweredModel lm =
      lowering::lower(*def.model, ra::Schedule{});
  auto trees = ds::make_sst_like_batch(4, rng);
  const linearizer::Linearized lin =
      linearizer::linearize_trees(baselines::raw(trees), lm.lin_spec);

  const ilir::Program improved = ilir::insert_barriers(lm.program, true);
  const ilir::Program conservative =
      ilir::insert_barriers(lm.program, false);
  const exec::IlirRun run_improved = exec::run_ilir(improved, lin, params);
  const exec::IlirRun run_conservative =
      exec::run_ilir(conservative, lin, params);

  // Improved: one barrier per internal batch. Conservative (TVM-style):
  // one per node iteration — strictly more.
  EXPECT_EQ(run_improved.barriers, lin.num_batches() - 1);
  EXPECT_EQ(run_conservative.barriers, lin.num_nodes);
  EXPECT_GT(run_conservative.barriers, run_improved.barriers);

  // Barrier placement never changes results.
  EXPECT_TRUE(allclose(run_improved.at("rnn"), run_conservative.at("rnn")));
}

// -- evaluator error handling -------------------------------------------------------

TEST(IlirEval, UnboundBufferThrows) {
  const models::ModelDef def = models::make_treernn_fig1(8);
  Rng rng(1);
  const lowering::LoweredModel lm =
      lowering::lower(*def.model, ra::Schedule{});
  auto trees = ds::make_sst_like_batch(1, rng);
  const linearizer::Linearized lin =
      linearizer::linearize_trees(baselines::raw(trees), lm.lin_spec);
  ilir::Evaluator ev(lm.program, lin);
  ev.bind_structure();
  // No tensor buffers bound: the first load/store must fail loudly.
  EXPECT_THROW(ev.run(), Error);
}

TEST(IlirEval, OutOfBoundsIndexThrows) {
  // A store outside the buffer extent is a hard error, not UB.
  ilir::Program p;
  p.name = "oob";
  ilir::Buffer b;
  b.name = "t";
  b.shape = {ra::imm(2)};
  p.buffers.push_back(b);
  p.body = ilir::make_store("t", {ra::imm(5)}, ra::fimm(1.0));
  linearizer::Linearized lin;
  lin.num_nodes = 1;
  lin.num_leaves = 1;
  lin.first_leaf_id = 0;
  models::ModelParams no_params;
  EXPECT_THROW(exec::run_ilir(p, lin, no_params), Error);
}

}  // namespace
}  // namespace cortex
