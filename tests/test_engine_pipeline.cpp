// The compiler's artifact: the schedule-optimized ILIR program that
// exec::compile_ilir builds. These tests close the loop between the
// three layers of the system —
// the optimized program must (a) still compute the reference numerics,
// (b) reflect the schedule structurally (fusion removes the temporary
// buffers; peeling appears; barrier placement follows §A.4), and
// (c) agree with the engine's *cost model* about how many device-wide
// barriers one inference executes.

#include <gtest/gtest.h>

#include "baselines/common.hpp"
#include "ds/generators.hpp"
#include "exec/cost_model.hpp"
#include "exec/ilir_runner.hpp"
#include "ilir/passes.hpp"
#include "models/model_zoo.hpp"

namespace cortex::exec {
namespace {

runtime::DeviceSpec gpu() { return runtime::DeviceSpec::v100_gpu(); }

TEST(EnginePipeline, OptimizedProgramMatchesReferenceNumerics) {
  for (int which = 0; which < 3; ++which) {
    const models::ModelDef def =
        which == 0   ? models::make_treernn_fig1(8)
        : which == 1 ? models::make_treelstm_embed(8)
                     : models::make_treegru_embed(8);
    SCOPED_TRACE(def.name);
    Rng rng(61 + static_cast<std::uint64_t>(which));
    const models::ModelParams params = models::init_params(def, rng);
    auto trees = ds::make_sst_like_batch(4, rng);

    const CompiledIlir c = compile_ilir(*def.model, ra::Schedule{});
    const linearizer::Linearized lin = linearizer::linearize_trees(
        baselines::raw(trees), c.lowered.lin_spec);

    const IlirRun unopt = run_ilir(c.lowered.program, lin, params);
    const IlirRun opt = run_ilir(c.optimized, lin, params);
    const std::string& out = c.lowered.output;
    EXPECT_TRUE(allclose(opt.at(out), unopt.at(out)));
  }
}

TEST(EnginePipeline, FusionPipelineRemovesTemporaryBuffers) {
  const models::ModelDef def = models::make_treernn_fig1(8);
  const CompiledIlir c = compile_ilir(*def.model, ra::Schedule{});
  // Listing 2's lh/rh temporaries are forwarded + dead-store-eliminated
  // in the optimized program (the Fig. 8 on-chip-reuse effect).
  EXPECT_NE(c.lowered.program.find_buffer("lh"), nullptr);
  EXPECT_EQ(c.optimized.find_buffer("lh"), nullptr);
  EXPECT_EQ(c.optimized.find_buffer("rh"), nullptr);
  EXPECT_NE(c.optimized.find_buffer("rnn"), nullptr);

  // With fusion off, the temporaries stay materialized.
  const CompiledIlir unfused =
      compile_ilir(*def.model, ra::Schedule::unoptimized());
  EXPECT_NE(unfused.optimized.find_buffer("lh"), nullptr);
}

TEST(EnginePipeline, PeelingAndBarriersAppearPerSchedule) {
  const models::ModelDef def = models::make_treelstm(8);

  ra::Schedule with;  // defaults: peeling + improved barriers on
  const ilir::Program p_with = compile_ilir(*def.model, with).optimized;
  EXPECT_NE(ilir::to_string(p_with).find("peeled: main loop"),
            std::string::npos);
  EXPECT_EQ(ilir::static_barrier_count(p_with), 1);

  ra::Schedule without;
  without.loop_peeling = false;
  without.improved_barrier_placement = false;
  const ilir::Program p_without =
      compile_ilir(*def.model, without).optimized;
  EXPECT_EQ(ilir::to_string(p_without).find("peeled: main loop"),
            std::string::npos);
  // Conservative TVM-style placement: barriers in every node loop.
  EXPECT_GT(ilir::static_barrier_count(p_without), 1);
}

TEST(EnginePipeline, DenseIndexingFollowsScheduleKnob) {
  // With fusion disabled the temporaries survive to be dense-indexed.
  const models::ModelDef def = models::make_treernn_fig1(8);
  ra::Schedule s = ra::Schedule::unoptimized();
  s.dense_intermediates = true;
  const CompiledIlir dense = compile_ilir(*def.model, s);
  const ilir::Buffer* lh = dense.optimized.find_buffer("lh");
  ASSERT_NE(lh, nullptr);
  EXPECT_EQ(lh->scope, ilir::MemScope::kShared);

  ra::Schedule off = ra::Schedule::unoptimized();
  off.dense_intermediates = false;
  const CompiledIlir plain = compile_ilir(*def.model, off);
  EXPECT_EQ(plain.optimized.find_buffer("lh")->scope,
            ilir::MemScope::kGlobal);
}

TEST(EnginePipeline, GeneratedBarriersAgreeWithCostModel) {
  // Cross-layer consistency: the barriers the *generated program*
  // executes (reference evaluator) equal the barriers the *device
  // accounting* charges, for single-phase cells under the default
  // schedule. This pins the cost model to the compiled artifact.
  for (int which = 0; which < 2; ++which) {
    const models::ModelDef def = which == 0
                                     ? models::make_treernn_fig1(8)
                                     : models::make_treelstm(8);
    SCOPED_TRACE(def.name);
    ASSERT_EQ(def.sync_points_per_step, 1);
    Rng rng(65 + static_cast<std::uint64_t>(which));
    const models::ModelParams params = models::init_params(def, rng);
    auto trees = ds::make_sst_like_batch(5, rng);

    CortexEngine engine(def, params, ra::Schedule{}, gpu());
    const CompiledIlir c = compile_ilir(*def.model, ra::Schedule{});
    const linearizer::Linearized lin = linearizer::linearize_trees(
        baselines::raw(trees), c.lowered.lin_spec);
    const runtime::RunResult r = model_cost(engine, lin, 0.0);
    const IlirRun ir = run_ilir(c.optimized, lin, params);
    EXPECT_EQ(ir.barriers, r.profiler.barriers);
  }
}

TEST(EnginePipeline, CellOnlyModelsHaveNoProgram) {
  // A user-defined cell-only model (no RA definition) still executes,
  // but exposes no lowered ILIR (and has no ra::Model to compile_ilir).
  models::ModelDef def = models::make_seq_lstm(16);
  def.model.reset();
  Rng rng(66);
  const models::ModelParams params = models::init_params(def, rng);
  CortexEngine engine(def, params, ra::Schedule{}, gpu());
  EXPECT_EQ(engine.lowered(), nullptr);
  auto chain = ds::make_chain_tree(6, rng);
  std::vector<const ds::Tree*> batch = {chain.get()};
  EXPECT_EQ(engine.run(batch).root_states.size(), 1u);
}

TEST(EnginePipeline, SequentialModelsLowerAndMatchCellSemantics) {
  // Fig. 9's sequential LSTM/GRU now run the full compiler pipeline:
  // chains are degenerate trees, so lowering + the ILIR evaluator must
  // agree with the shared cell numerics.
  for (int which = 0; which < 2; ++which) {
    const models::ModelDef def =
        which == 0 ? models::make_seq_lstm(8) : models::make_seq_gru(8);
    SCOPED_TRACE(def.name);
    ASSERT_TRUE(def.model.has_value());
    Rng rng(67 + static_cast<std::uint64_t>(which));
    const models::ModelParams params = models::init_params(def, rng);
    std::vector<std::unique_ptr<ds::Tree>> chains;
    for (int i = 0; i < 3; ++i)
      chains.push_back(ds::make_chain_tree(12, rng));

    CortexEngine engine(def, params, ra::Schedule{}, gpu());
    const CompiledIlir c = compile_ilir(*def.model, ra::Schedule{});
    const linearizer::Linearized lin = linearizer::linearize_trees(
        baselines::raw(chains), c.lowered.lin_spec);
    engine.run_linearized(lin, 0.0);
    const IlirRun ir = run_ilir(c.optimized, lin, params);
    const Tensor& out = ir.at(c.lowered.output);
    EXPECT_TRUE(allclose(out, engine.last_states(), 1e-3f, 1e-3f))
        << "max diff " << max_abs_diff(out, engine.last_states());
  }
}

}  // namespace
}  // namespace cortex::exec
