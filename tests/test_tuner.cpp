// Grid-search auto-tuning (§6) and the classical loop transformations:
// the tuner finds a schedule at least as good as the paper's default and
// never proposes illegal combinations; split/reorder/annotate preserve
// semantics through the evaluator.

#include <gtest/gtest.h>

#include "baselines/common.hpp"
#include "ds/generators.hpp"
#include "exec/cost_model.hpp"
#include "exec/ilir_runner.hpp"
#include "exec/tuner.hpp"
#include "ilir/passes.hpp"
#include "lowering/lower.hpp"
#include "models/model_zoo.hpp"

namespace cortex::exec {
namespace {

runtime::DeviceSpec gpu() { return runtime::DeviceSpec::v100_gpu(); }

TEST(Tuner, BestScheduleBeatsOrMatchesDefault) {
  Rng rng(5);
  const models::ModelDef def = models::make_treelstm(64);
  const models::ModelParams params = models::init_params(def, rng);
  auto trees = ds::make_sst_like_batch(6, rng);
  const linearizer::Linearized lin = linearizer::linearize_trees(
      baselines::raw(trees), linearizer::LinearizerSpec{});

  const TuneResult tuned = autotune(def, lin, gpu());
  const CortexEngine default_engine(def, params, ra::Schedule{}, gpu());
  const double default_ms =
      model_cost(default_engine, lin, 0.0).modeled_latency_ms();
  EXPECT_LE(tuned.best_latency_ms, default_ms + 1e-9);
  // The winner keeps the paper's headline choices for tree models:
  // dynamic batching + maximal fusion.
  EXPECT_TRUE(tuned.best.dynamic_batching);
  EXPECT_EQ(tuned.best.fusion, ra::FusionLevel::kMaximal);
  // Trials are sorted best-first and cover a real grid.
  ASSERT_GT(tuned.trials.size(), 20u);
  for (std::size_t i = 1; i < tuned.trials.size(); ++i)
    EXPECT_LE(tuned.trials[i - 1].second, tuned.trials[i].second);
  EXPECT_FALSE(tuned.summary().empty());
}

TEST(Tuner, DagModelsNeverGetUnrollOrRefactor) {
  Rng rng(6);
  const models::ModelDef def = models::make_dagrnn(32);
  // The tuner reads no weights; drawing them keeps the inputs' seeds.
  (void)models::init_params(def, rng);
  std::vector<std::unique_ptr<ds::Dag>> dags;
  for (int i = 0; i < 4; ++i) dags.push_back(ds::make_grid_dag(6, 6, rng));
  linearizer::LinearizerSpec spec;
  spec.kind = linearizer::StructureKind::kDag;
  const linearizer::Linearized lin =
      linearizer::linearize_dags(baselines::raw(dags), spec);

  const TuneResult tuned = autotune(def, lin, gpu());
  for (const auto& [sched, ms] : tuned.trials) {
    EXPECT_EQ(sched.unroll_depth, 1);
    EXPECT_FALSE(sched.refactor);
  }
}

TEST(Tuner, UnrollWinsForBlockLocalModels) {
  // Fig. 10b as a tuner outcome: TreeRNN's best schedule unrolls.
  Rng rng(7);
  const models::ModelDef def = models::make_treernn(256);
  (void)models::init_params(def, rng);  // keeps the inputs' seeds
  auto trees = ds::make_sst_like_batch(10, rng);
  const linearizer::Linearized lin = linearizer::linearize_trees(
      baselines::raw(trees), linearizer::LinearizerSpec{});
  const TuneResult tuned = autotune(def, lin, gpu());
  EXPECT_GT(tuned.best.unroll_depth, 1);

  // ...and TreeLSTM's best schedule does not (barrier multiplication).
  const models::ModelDef lstm = models::make_treelstm(256);
  const TuneResult lstm_tuned = autotune(lstm, lin, gpu());
  EXPECT_EQ(lstm_tuned.best.unroll_depth, 1);
}

// -- classical loop transformations -----------------------------------------------

struct LoweredFixture {
  models::ModelDef def = models::make_treernn_fig1(8);
  models::ModelParams params;
  lowering::LoweredModel lm;
  linearizer::Linearized lin;

  LoweredFixture() {
    Rng rng(8);
    params = models::init_params(def, rng);
    lm = lowering::lower(*def.model, ra::Schedule{});
    auto trees = ds::make_sst_like_batch(3, rng);
    lin = linearizer::linearize_trees(baselines::raw(trees), lm.lin_spec);
  }

  void expect_parity(const ilir::Program& p) const {
    const IlirRun r0 = run_ilir(lm.program, lin, params);
    const IlirRun r1 = run_ilir(p, lin, params);
    EXPECT_TRUE(allclose(r0.at("rnn"), r1.at("rnn")));
  }
};

TEST(LoopTransforms, SplitPreservesSemantics) {
  LoweredFixture f;
  const ilir::Program split = ilir::split_loop(f.lm.program, "i", 4);
  const std::string s = ilir::to_string(split);
  EXPECT_NE(s.find("for i_o = 0:2"), std::string::npos);  // 8 / 4
  EXPECT_NE(s.find("for i_i = 0:4"), std::string::npos);
  f.expect_parity(split);
}

TEST(LoopTransforms, SplitRejectsBadFactorOrMissingLoop) {
  LoweredFixture f;
  EXPECT_THROW(ilir::split_loop(f.lm.program, "i", 3), Error);  // 8 % 3
  EXPECT_THROW(ilir::split_loop(f.lm.program, "zz", 2), Error);
  EXPECT_THROW(ilir::split_loop(f.lm.program, "i", 1), Error);
  // Variable-extent loops cannot be split (peel them instead, §A.5).
  EXPECT_THROW(ilir::split_loop(f.lm.program, "n_idx", 2), Error);
}

TEST(LoopTransforms, ReorderSwapsPerfectNest) {
  // Build a perfect 2-D nest: out[i,j] = src[i,j].
  ilir::Program p;
  p.name = "nest";
  for (const char* name : {"out", "src"}) {
    ilir::Buffer b;
    b.name = name;
    b.shape = {ra::imm(4), ra::imm(6)};
    p.buffers.push_back(b);
  }
  p.body = ilir::make_for(
      "i", ra::imm(0), ra::imm(4),
      ilir::make_for(
          "j", ra::imm(0), ra::imm(6),
          ilir::make_store("out", {ra::var("i"), ra::var("j")},
                           ra::load("src", {ra::var("i"), ra::var("j")}))));
  const ilir::Program swapped = ilir::reorder_loops(p, "i", "j");
  EXPECT_EQ(swapped.body->var, "j");
  EXPECT_EQ(swapped.body->body->var, "i");

  // Parity via the evaluator.
  linearizer::Linearized lin;
  lin.num_nodes = 1;
  lin.num_leaves = 1;
  models::ModelParams params;
  Rng rng(9);
  params.tensors.emplace("src",
                         Tensor::uniform(Shape{4, 6}, rng, -1.f, 1.f));
  const IlirRun r0 = run_ilir(p, lin, params);
  const IlirRun r1 = run_ilir(swapped, lin, params);
  EXPECT_TRUE(allclose(r0.at("out"), r1.at("out")));
}

TEST(LoopTransforms, ReorderRejectsImperfectNest) {
  LoweredFixture f;
  // The batch loop contains a node loop with a let in between and
  // multiple statements: not perfectly nested with "i".
  EXPECT_THROW(ilir::reorder_loops(f.lm.program, "b_idx", "i"), Error);
}

TEST(LoopTransforms, AnnotateMarksLoopsForCodegen) {
  LoweredFixture f;
  const ilir::Program vec =
      ilir::annotate_loop(f.lm.program, "i", ilir::ForKind::kVectorized);
  bool any_vectorized = false;
  ilir::visit(vec.body, [&](const ilir::Stmt& s) {
    if (s->kind == ilir::StmtKind::kFor &&
        s->fkind == ilir::ForKind::kVectorized)
      any_vectorized = true;
  });
  EXPECT_TRUE(any_vectorized);
  f.expect_parity(vec);  // pure annotation: no semantic change
  EXPECT_THROW(
      ilir::annotate_loop(f.lm.program, "zz", ilir::ForKind::kUnrolled),
      Error);
}

}  // namespace
}  // namespace cortex::exec
