// Batched wavefront executor: the per-node oracle
// (baselines::compute_states, models::CellExecutor::run_node node by
// node) is the regression reference —
// every node state must be bit-identical to the engine's panel-GEMM path
// across the model zoo, schedules, batch sizes and thread counts, and for
// cells whose eltwise ops read wider registers. Plus the kernel-level
// contracts the executor is built on (panel GEMM == per-row GEMV bitwise,
// column shares of the packed GEMM, strided gather, vectorized strided
// eltwise == scalar eltwise), the profiler's panel counters, and
// EnginePool parity with batching enabled.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/common.hpp"
#include "ds/generators.hpp"
#include "exec/cost_model.hpp"
#include "exec/engine_pool.hpp"
#include "models/model_zoo.hpp"
#include "tensor/kernels.hpp"
#include "tensor/kernels_detail.hpp"

namespace cortex::exec {
namespace {

runtime::DeviceSpec gpu() { return runtime::DeviceSpec::v100_gpu(); }

linearizer::Linearized lin_for(const models::ModelDef& def,
                               std::int64_t batch, std::uint64_t seed) {
  Rng rng(seed);
  linearizer::LinearizerSpec spec;
  spec.kind = def.kind();
  if (spec.kind == linearizer::StructureKind::kDag) {
    std::vector<std::unique_ptr<ds::Dag>> dags;
    for (std::int64_t b = 0; b < batch; ++b)
      dags.push_back(ds::make_grid_dag(5, 5, rng));
    return linearizer::linearize_dags(baselines::raw(dags), spec);
  }
  std::vector<std::unique_ptr<ds::Tree>> trees;
  if (def.name == "SeqLSTM" || def.name == "SeqGRU") {
    // Sequence models run over chains (the Fig. 9 workload shape).
    for (std::int64_t b = 0; b < batch; ++b)
      trees.push_back(ds::make_chain_tree(9, rng));
  } else {
    trees = ds::make_sst_like_batch(batch, rng);
  }
  return linearizer::linearize_trees(baselines::raw(trees), spec);
}

std::vector<ra::Schedule> schedules_for(const models::ModelDef& def) {
  (void)def;
  return {ra::Schedule{}, ra::Schedule::unoptimized(),
          ra::Schedule::cavs_comparable()};
}

/// The per-node oracle, baselines::compute_states: every node state
/// (N x state_width, row-major).
std::vector<float> per_node_states(const models::ModelDef& def,
                                   const models::ModelParams& params,
                                   const linearizer::Linearized& lin) {
  const Tensor states = baselines::compute_states(def, params, lin).states;
  return std::vector<float>(states.data(), states.data() + states.numel());
}

/// Root rows of a full state table, in lin.roots order (RunResult's
/// root_states layout).
std::vector<std::vector<float>> roots_of(const std::vector<float>& states,
                                         const linearizer::Linearized& lin,
                                         std::int64_t state_width) {
  std::vector<std::vector<float>> roots;
  for (const std::int32_t r : lin.roots) {
    const float* row = states.data() + r * state_width;
    roots.emplace_back(row, row + state_width);
  }
  return roots;
}

/// Panel GEMMs one wavefront of `leaf` nodes issues: the kMatVec ops of
/// the cell program it runs (single-formula cells run the internal program
/// for leaves too, as BatchedCellExecutor::run_batch does).
std::int64_t matvecs(const models::CellProgram& cell, bool leaf) {
  const std::vector<models::CellOp>& ops =
      leaf && !cell.leaf_ops.empty() ? cell.leaf_ops : cell.internal_ops;
  return std::count_if(ops.begin(), ops.end(), [](const models::CellOp& op) {
    return op.kind == models::CellOpKind::kMatVec;
  });
}

std::vector<float> all_states(const CortexEngine& engine,
                              const linearizer::Linearized& lin,
                              std::int64_t state_width) {
  return std::vector<float>(
      engine.last_states().data(),
      engine.last_states().data() + lin.num_nodes * state_width);
}

// -- differential battery: batched vs per-node across the zoo ---------------------

class BatchedZoo : public ::testing::TestWithParam<int> {
 protected:
  models::ModelDef def() const {
    switch (GetParam()) {
      case 0: return models::make_treernn_fig1(16);
      case 1: return models::make_treefc_embed(16);
      case 2: return models::make_treegru_embed(16);
      case 3: return models::make_treelstm_embed(16);
      case 4: return models::make_mvrnn(8);
      case 5: return models::make_dagrnn(16);
      case 6: return models::make_seq_lstm(16);
      case 8: return models::make_seq_gru(16);
      default: return models::make_treernn(16);
    }
  }
};

TEST_P(BatchedZoo, BatchedMatchesPerNodeBitwiseAcrossSchedulesAndThreads) {
  const models::ModelDef def = this->def();
  Rng rng(101);
  const models::ModelParams params = models::init_params(def, rng);

  for (const ra::Schedule& sched : schedules_for(def)) {
    CortexEngine engine(def, params, sched, gpu());
    for (const std::int64_t batch : {0, 1, 2, 5, 13}) {
      if (batch == 0) {
        // Empty mini-batch: an empty result, nothing computed.
        EXPECT_TRUE(engine.run_linearized(linearizer::Linearized{}, 0.0)
                        .root_states.empty());
        continue;
      }
      const linearizer::Linearized lin =
          lin_for(def, batch, 101 + static_cast<std::uint64_t>(batch));
      const std::vector<float> ref_states = per_node_states(def, params, lin);
      const std::vector<std::vector<float>> ref_roots =
          roots_of(ref_states, lin, def.cell.state_width);
      runtime::RunResult first;
      for (const int threads : {1, 4}) {
        engine.set_num_threads(threads);
        const runtime::RunResult batched = engine.run_linearized(lin, 0.0);
        const std::vector<float> batched_states =
            all_states(engine, lin, def.cell.state_width);

        EXPECT_EQ(batched.root_states, ref_roots)
            << def.name << " batch=" << batch << " threads=" << threads;
        // Stronger than roots: every node state bit-identical.
        EXPECT_EQ(batched_states, ref_states)
            << def.name << " batch=" << batch << " threads=" << threads;
        EXPECT_GT(batched.profiler.batched_panels, 0);
        EXPECT_LE(batched.profiler.max_panel_rows, lin.max_batch_length());
        if (matvecs(def.cell, false) > 0 && lin.num_batches() > 1) {
          EXPECT_GT(batched.profiler.batched_gemm_calls, 0);
        }
        if (threads == 1) {
          first = batched;
        } else {
          // Every thread count computes the same nodes.
          EXPECT_EQ(batched.root_states, first.root_states);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, BatchedZoo, ::testing::Range(0, 9));

// -- exact panel accounting at one thread -----------------------------------------

TEST(BatchedProfile, SingleThreadCountsMatchPlanMetadata) {
  // One thread, homogeneous wavefronts: exactly one panel per dynamic
  // batch, and the cell programs' matvec counts pin the GEMM total.
  // SeqLSTM over chains hoists its four W·x products: all eight chain
  // steps fit one window, so they cost 4 GEMMs once and each step runs
  // only the four U·h ones. TreeLSTM and DAG-RNN decline hoisting on
  // these inputs and keep one GEMM per matvec per batch.
  struct Case {
    models::ModelDef (*make)();
    std::int64_t hoisted;  // matvecs hoisted out of every step
  };
  for (const Case& c :
       {Case{+[] { return models::make_treelstm_embed(16); }, 0},
        Case{+[] { return models::make_dagrnn(16); }, 0},
        Case{+[] { return models::make_seq_lstm(16); }, 4}}) {
    const models::ModelDef def = c.make();
    Rng rng(7);
    const models::ModelParams params = models::init_params(def, rng);
    const linearizer::Linearized lin = lin_for(def, 5, 77);

    CortexEngine engine(def, params, ra::Schedule{}, gpu());
    engine.set_num_threads(1);
    const runtime::RunResult r = engine.run_linearized(lin, 0.0);
    const std::int64_t windows = c.hoisted > 0 ? 1 : 0;

    EXPECT_EQ(r.profiler.batched_panels, lin.num_batches()) << def.name;
    EXPECT_EQ(r.profiler.max_panel_rows, lin.max_batch_length()) << def.name;
    EXPECT_EQ(r.profiler.batched_gemm_calls,
              matvecs(def.cell, true) + windows * c.hoisted +
                  (lin.num_batches() - 1) *
                      (matvecs(def.cell, false) - c.hoisted))
        << def.name;
  }
}

TEST(BatchedProfile, PanelStatsResetBetweenRuns) {
  const models::ModelDef def = models::make_treelstm_embed(16);
  Rng rng(9);
  const models::ModelParams params = models::init_params(def, rng);
  const linearizer::Linearized lin = lin_for(def, 3, 9);

  CortexEngine engine(def, params, ra::Schedule{}, gpu());
  engine.set_num_threads(1);
  const runtime::RunResult a = engine.run_linearized(lin, 0.0);
  const runtime::RunResult b = engine.run_linearized(lin, 0.0);
  EXPECT_EQ(a.profiler.batched_gemm_calls, b.profiler.batched_gemm_calls);
  EXPECT_EQ(a.profiler.batched_panels, b.profiler.batched_panels);
  EXPECT_EQ(a.root_states, b.root_states);
}

TEST(BatchedProfile, ThrowingRunDoesNotLeakStatsIntoNextRun) {
  // A run that throws mid-wavefront leaves partial per-worker counters;
  // the next run must start from zero, not drain the leftovers.
  const models::ModelDef def = models::make_treelstm_embed(16);
  Rng rng(15);
  const models::ModelParams params = models::init_params(def, rng);
  const linearizer::Linearized lin = lin_for(def, 3, 15);

  CortexEngine engine(def, params, ra::Schedule{}, gpu());
  engine.set_num_threads(1);
  const runtime::RunResult good = engine.run_linearized(lin, 0.0);

  linearizer::Linearized bad = lin;
  bad.word[static_cast<std::size_t>(bad.num_nodes) - 1] = 1 << 20;
  EXPECT_THROW(engine.run_linearized(bad, 0.0), Error);

  const runtime::RunResult after = engine.run_linearized(lin, 0.0);
  EXPECT_EQ(after.profiler.batched_panels, good.profiler.batched_panels);
  EXPECT_EQ(after.profiler.batched_gemm_calls,
            good.profiler.batched_gemm_calls);
  EXPECT_EQ(after.profiler.max_panel_rows, good.profiler.max_panel_rows);
  EXPECT_EQ(after.root_states, good.root_states);
}

// -- input hoisting ------------------------------------------------------------

/// Runs `lin` at threads {1, 4} and expects every node state bit-identical
/// to the per-node oracle; returns the one-thread GEMM count.
std::int64_t expect_matches_per_node(const models::ModelDef& def,
                                     const models::ModelParams& params,
                                     const linearizer::Linearized& lin) {
  const std::vector<float> ref = per_node_states(def, params, lin);
  CortexEngine engine(def, params, ra::Schedule{}, gpu());
  std::int64_t gemms = -1;
  for (const int threads : {1, 4}) {
    engine.set_num_threads(threads);
    const runtime::RunResult r = engine.run_linearized(lin, 0.0);
    EXPECT_EQ(all_states(engine, lin, def.cell.state_width), ref)
        << def.name << " threads=" << threads;
    if (threads == 1) gemms = r.profiler.batched_gemm_calls;
  }
  return gemms;
}

TEST(BatchedHoist, FindsTheRecurrenceFreeOpsOfEachChild) {
  // Floats per node of each child's hoisted registers that the per-step
  // ops read. SeqLSTM: the four W·x gate products of the token (child 1);
  // the previous c and the four U·h products of child 0. SeqGRU: three
  // W·x; from child 0 the previous h, Uz·h and Ur·h (Uh reads r*h, which
  // needs child 1 too). TreeLSTM: each child's c slice and forget gate.
  // DAG-RNN sums its children first: nothing to hoist.
  const std::int64_t h = 16;
  const auto widths = [](const models::ModelDef& def) {
    Rng rng(3);
    const models::ModelParams params = models::init_params(def, rng);
    const models::BatchedCellExecutor exec(def.cell, params);
    return std::vector<std::int64_t>{exec.hoist_width(0),
                                     exec.hoist_width(1),
                                     exec.hoist_width(2)};
  };
  EXPECT_EQ(widths(models::make_seq_lstm(h)),
            (std::vector<std::int64_t>{5 * h, 4 * h, 0}));
  EXPECT_EQ(widths(models::make_seq_gru(h)),
            (std::vector<std::int64_t>{3 * h, 3 * h, 0}));
  EXPECT_EQ(widths(models::make_treelstm_embed(h)),
            (std::vector<std::int64_t>{2 * h, 2 * h, 0}));
  EXPECT_EQ(widths(models::make_dagrnn(h)),
            (std::vector<std::int64_t>{0, 0, 0}));
}

TEST(BatchedHoist, WindowCrossingChainsMatchPerNode) {
  // 16 chains of 100 tokens at h256: 99 internal wavefronts of 16 rows.
  // A hoisting window holds 1024 rows of the four 256-wide W·x products
  // (4 MiB), so the steps split into windows of 64 and 35 wavefronts and
  // the per-step panels read rows on both sides of the boundary.
  const models::ModelDef def = models::make_seq_lstm(256);
  Rng rng(41);
  const models::ModelParams params = models::init_params(def, rng);
  std::vector<std::unique_ptr<ds::Tree>> chains;
  for (int i = 0; i < 16; ++i) chains.push_back(ds::make_chain_tree(100, rng));
  const linearizer::Linearized lin = linearizer::linearize_trees(
      baselines::raw(chains), linearizer::LinearizerSpec{});
  ASSERT_EQ(lin.num_batches(), 100);
  EXPECT_EQ(expect_matches_per_node(def, params, lin), 2 * 4 + 99 * 4);
}

TEST(BatchedHoist, SequenceModelOnTreesDeclines) {
  // Over SST-like trees child 1 is often internal, so no window can be
  // filled before the steps run: the engine runs every matvec per step.
  const models::ModelDef def = models::make_seq_lstm(16);
  Rng rng(43);
  const models::ModelParams params = models::init_params(def, rng);
  auto trees = ds::make_sst_like_batch(5, rng);
  const linearizer::Linearized lin = linearizer::linearize_trees(
      baselines::raw(trees), linearizer::LinearizerSpec{});
  EXPECT_EQ(expect_matches_per_node(def, params, lin),
            (lin.num_batches() - 1) * matvecs(def.cell, false));
}

// -- every schedule and every valid cell runs as panels --------------------------

TEST(BatchedDispatch, NoDynamicBatchingFallsBackToPerNode) {
  // Without dynamic batching only the modeled device cost changes (one
  // launch per node): the host still runs the wavefronts as panels.
  const models::ModelDef def = models::make_treelstm_embed(16);
  Rng rng(11);
  const models::ModelParams params = models::init_params(def, rng);
  const linearizer::Linearized lin = lin_for(def, 4, 11);

  ra::Schedule s;
  s.dynamic_batching = false;
  CortexEngine unbatched(def, params, s, gpu());
  const runtime::RunResult r = unbatched.run_linearized(lin, 0.0);
  EXPECT_GT(r.profiler.batched_gemm_calls, 0);
  EXPECT_GT(r.profiler.batched_panels, 0);

  // Same numerics as the per-node oracle and the dynamic-batching
  // engine, bit for bit.
  EXPECT_EQ(r.root_states,
            roots_of(per_node_states(def, params, lin), lin,
                     def.cell.state_width));
  CortexEngine batched(def, params, ra::Schedule{}, gpu());
  const runtime::RunResult rb = batched.run_linearized(lin, 0.0);
  EXPECT_EQ(rb.root_states, r.root_states);
  EXPECT_EQ(rb.profiler.batched_panels, r.profiler.batched_panels);
  EXPECT_LT(model_cost(batched, lin, 0.0).profiler.kernel_launches,
            model_cost(unbatched, lin, 0.0).profiler.kernel_launches);
}

TEST(BatchedDispatch, PanelIncompatibleCellFallsBackToPerNode) {
  // An eltwise op reading a register WIDER than its output reads the
  // first op.width elements of each input row: panels read such an input
  // at its own row stride, so the cell runs as panels like any other.
  models::ModelDef def;
  def.name = "WideEltwiseCell";
  def.hidden = 8;
  def.cell.state_width = 8;
  def.cell.num_children = 2;
  models::CellOp full;
  full.kind = models::CellOpKind::kSliceChild;
  full.out = "a";
  full.width = 8;
  full.child = 0;
  models::CellOp half;
  half.kind = models::CellOpKind::kEltwise;
  half.out = "t";
  half.width = 4;  // narrower than its input "a" (8)
  half.ins = {"a"};
  half.expr = ra::call(ra::CallFn::kTanh, ra::var("e0"));
  models::CellOp st;
  st.kind = models::CellOpKind::kConcat2;
  st.out = "st";
  st.width = 8;
  st.ins = {"t", "t"};
  def.cell.internal_ops = {full, half, st};
  models::CellOp leaf;
  leaf.kind = models::CellOpKind::kLeafConst;
  leaf.out = "st";
  leaf.width = 8;
  leaf.constant = 0.25;
  def.cell.leaf_ops = {leaf};
  def.cell.validate();

  models::ModelParams params;  // the cell reads no params
  Rng rng(31);
  auto trees = ds::make_sst_like_batch(2, rng);
  const std::vector<const ds::Tree*> raw = baselines::raw(trees);
  CortexEngine engine(def, params, ra::Schedule{}, gpu());
  const runtime::RunResult got = engine.run(raw);
  // A cell-only model linearizes with the default spec (no lowered one).
  const linearizer::Linearized lin =
      linearizer::linearize_trees(raw, linearizer::LinearizerSpec{});
  EXPECT_GT(got.profiler.batched_panels, 0);
  EXPECT_EQ(got.root_states,
            roots_of(per_node_states(def, params, lin), lin,
                     def.cell.state_width));
}

// -- engine pool parity with batching enabled -------------------------------------

TEST(BatchedEnginePool, PoolMatchesSingleEngineWithBatchingOn) {
  const models::ModelDef def = models::make_treelstm_embed(16);
  Rng rng(13);
  const models::ModelParams params = models::init_params(def, rng);
  auto trees = ds::make_sst_like_batch(13, rng);
  const std::vector<const ds::Tree*> raw = baselines::raw(trees);

  CortexEngine single(def, params, ra::Schedule{}, gpu());
  const runtime::RunResult expect = single.run(raw);
  ASSERT_GT(expect.profiler.batched_panels, 0);

  for (const int workers : {1, 4}) {
    EnginePoolOptions opts;
    opts.workers = workers;
    EnginePool pool(def, params, ra::Schedule{}, gpu(), opts);
    const runtime::RunResult got = pool.run(raw);
    EXPECT_EQ(got.root_states, expect.root_states) << workers << " workers";
    // The merged profiler aggregates every shard's panel counters.
    EXPECT_GT(got.profiler.batched_panels, 0) << workers << " workers";
  }
}

// -- run state is reused and never cleared ----------------------------------------

/// Zoo cells at the sizes whose recurrent step splits by columns in teams
/// of 2 and 4 (the kNodeMatVec / kMatStack2 and SeqGRU cells decline).
class BatchedPoison : public ::testing::TestWithParam<int> {
 protected:
  models::ModelDef def() const {
    switch (GetParam()) {
      case 0: return models::make_treernn_fig1(48);
      case 1: return models::make_treefc_embed(184);
      case 2: return models::make_treegru_embed(40);
      case 3: return models::make_treelstm_embed(136);
      case 4: return models::make_mvrnn(8);
      case 5: return models::make_dagrnn(264);
      case 6: return models::make_seq_lstm(136);
      case 7: return models::make_seq_gru(40);
      default: return models::make_treernn(184);
    }
  }
};

TEST_P(BatchedPoison, StaleNaNStateRowsAndArenaSlotsNeverReachANode) {
  // The engine keeps its state table and panel arenas across runs and
  // never clears them. A run with every in-place param (embedding tables,
  // eltwise biases) set to NaN leaves NaN in the reused state rows and
  // arena slots; a smaller and then a larger clean run must still match
  // the per-node oracle bit for bit (NaN compares unequal to everything).
  // Sequence chains run hoisted windows; narrow wavefronts split by
  // columns at team sizes 2 and 4.
  const models::ModelDef def = this->def();
  Rng rng(23);
  models::ModelParams params = models::init_params(def, rng);
  const linearizer::Linearized small = lin_for(def, 1, 231);
  const linearizer::Linearized large = lin_for(def, 4, 232);
  const linearizer::Linearized larger = lin_for(def, 7, 233);
  ASSERT_LT(small.num_nodes, large.num_nodes);
  ASSERT_LT(large.num_nodes, larger.num_nodes);
  const std::vector<float> ref_small = per_node_states(def, params, small);
  const std::vector<float> ref_larger = per_node_states(def, params, larger);
  const std::int64_t sw = def.cell.state_width;
  std::map<std::string, Tensor> clean;
  for (const auto& [name, t] : params.tensors) clean[name] = t.clone();
  const auto set_params = [&](bool poisoned) {
    for (auto& [name, t] : params.tensors) {
      if (poisoned)
        std::fill_n(t.data(), t.numel(), std::nanf(""));
      else
        std::copy_n(clean.at(name).data(), t.numel(), t.data());
    }
  };
  for (const int team : {1, 2, 4}) {
    CortexEngine engine(def, params, ra::Schedule{}, gpu());
    engine.set_num_threads(team);
    // The first run builds the executor, packing the clean kMatVec
    // weights; the others read the params in place.
    engine.run_linearized(small, 0.0);
    EXPECT_EQ(all_states(engine, small, sw), ref_small) << def.name;

    set_params(true);
    engine.run_linearized(large, 0.0);
    set_params(false);
    const std::vector<float> poisoned = all_states(engine, large, sw);
    for (std::int64_t id = 0; id < large.num_nodes; ++id) {
      const auto i = static_cast<std::size_t>(id);
      if (large.child_offsets[i] != large.child_offsets[i + 1]) continue;
      const auto row = poisoned.begin() + id * sw;
      ASSERT_TRUE(std::any_of(row, row + sw,
                              [](float v) { return std::isnan(v); }))
          << def.name << ": leaf " << id << " was not poisoned";
    }

    engine.run_linearized(small, 0.0);
    EXPECT_EQ(all_states(engine, small, sw), ref_small)
        << def.name << " team=" << team << " after the poisoned run";
    engine.run_linearized(larger, 0.0);
    EXPECT_EQ(all_states(engine, larger, sw), ref_larger)
        << def.name << " team=" << team << " growing past it";
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, BatchedPoison, ::testing::Range(0, 9));

TEST(BatchedPoisonExecutor, ReadsNoArenaSlotOrStateRowBeforeWritingIt) {
  // The executor contract without an engine: with every arena float and
  // every state row NaN before each call, whole calls and every member's
  // column share together still write the per-node states.
  const std::vector<models::ModelDef> zoo = {
      models::make_treernn_fig1(40), models::make_treefc_embed(40),
      models::make_treegru_embed(40), models::make_treelstm_embed(40),
      models::make_mvrnn(6),          models::make_dagrnn(40),
      models::make_seq_lstm(40),      models::make_seq_gru(40),
      models::make_treernn(40)};
  for (const models::ModelDef& def : zoo) {
    Rng rng(29);
    const models::ModelParams params = models::init_params(def, rng);
    const models::BatchedCellExecutor exec(def.cell, params);
    const linearizer::Linearized lin = lin_for(def, 3, 29);
    const std::vector<float> ref = per_node_states(def, params, lin);
    const std::int64_t sw = def.cell.state_width;
    // Every register of both programs for the widest panel: more than any
    // layout binds, so no call grows (and zero-fills) the arena.
    std::int64_t all_regs = 0;
    for (const auto& [name, w] : def.cell.register_widths()) all_regs += w;
    const auto arena_floats =
        static_cast<std::size_t>(all_regs * lin.max_batch_length());
    for (const int members : {1, 2, 4}) {
      std::vector<float> states(ref.size(), std::nanf(""));
      std::vector<models::BatchedCellExecutor::Panels> panels(
          static_cast<std::size_t>(members));
      for (std::int64_t b = 0; b < lin.num_batches(); ++b) {
        const auto begin = lin.batch_begin[static_cast<std::size_t>(b)];
        const auto len = lin.batch_length[static_cast<std::size_t>(b)];
        const auto i0 = static_cast<std::size_t>(begin);
        const bool leaf = lin.child_offsets[i0] == lin.child_offsets[i0 + 1];
        for (int m = 0; m < members; ++m) {
          models::BatchedCellExecutor::Panels& p =
              panels[static_cast<std::size_t>(m)];
          p.arena.assign(arena_floats, std::nanf(""));
          exec.run_batch(leaf, len, lin.word.data() + i0,
                         lin.child_offsets.data() + i0, lin.child_ids.data(),
                         states.data(), states.data() + begin * sw, p,
                         nullptr, models::ColumnShare{m, members});
          ASSERT_EQ(p.arena.size(), arena_floats) << def.name;
        }
      }
      ASSERT_EQ(states, ref) << def.name << " members=" << members;
    }
  }
}

TEST(BatchedArena, EachProgramLaysOutOnlyTheRegistersItWrites) {
  // 16 chains of 100 tokens, SeqLSTM h256 (the served shard): a 1600-row
  // leaf wavefront, then 99 steps of 16 rows. Both programs end in the
  // concat of the state's two halves, whose producers write the state rows
  // directly: the leaf's embedding and zero c leave it no register at all,
  // and the internal program lays out its 15 other registers (the three
  // child slices, four gates of two products each, and the gates), not hh
  // or c — 15 x 256 floats per row, not the 5376 of every register of both
  // programs. The arena keeps its high-water size: a second run neither
  // grows nor moves it.
  const models::ModelDef def = models::make_seq_lstm(256);
  Rng rng(47);
  const models::ModelParams params = models::init_params(def, rng);
  std::vector<std::unique_ptr<ds::Tree>> chains;
  for (int i = 0; i < 16; ++i) chains.push_back(ds::make_chain_tree(100, rng));
  const linearizer::Linearized lin = linearizer::linearize_trees(
      baselines::raw(chains), linearizer::LinearizerSpec{});
  ASSERT_EQ(lin.batch_length[0], 1600);
  const models::BatchedCellExecutor exec(def.cell, params);
  const std::int64_t sw = def.cell.state_width;
  std::vector<float> states(static_cast<std::size_t>(lin.num_nodes * sw));
  models::BatchedCellExecutor::Panels p;
  const auto run_batches = [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t b = b0; b < b1; ++b) {
      const auto begin = lin.batch_begin[static_cast<std::size_t>(b)];
      const auto i0 = static_cast<std::size_t>(begin);
      exec.run_batch(b == 0, lin.batch_length[static_cast<std::size_t>(b)],
                     lin.word.data() + i0, lin.child_offsets.data() + i0,
                     lin.child_ids.data(), states.data(),
                     states.data() + begin * sw, p);
    }
  };
  run_batches(0, 1);
  EXPECT_EQ(p.arena.size(), 0u);
  run_batches(1, lin.num_batches());
  EXPECT_EQ(p.arena.size(), std::size_t{15} * 256 * 16);
  const std::size_t size = p.arena.size();
  const float* data = p.arena.data();
  run_batches(0, lin.num_batches());
  EXPECT_EQ(p.arena.size(), size);
  EXPECT_EQ(p.arena.data(), data);
  // The states are the per-node oracle's.
  EXPECT_EQ(states, per_node_states(def, params, lin));
}

// -- kernel-level contracts the executor is built on ------------------------------

TEST(PanelKernels, PanelGemmBitIdenticalToPerRowGemv) {
  // The load-bearing numerics contract: C = In @ W^T computed by
  // kernels::gemm over the transposed weight, and by kernels::gemm_packed
  // over the packed one the executor serves from, must equal per-row
  // kernels::gemv bit for bit, for sizes exercising every tile/tail path,
  // in every GEMM and GEMV variant this host supports (the public entry
  // points run the one selected at load).
  Rng rng(17);
  for (const auto [rows, k, m] :
       {std::array<std::int64_t, 3>{1, 3, 2},
        std::array<std::int64_t, 3>{4, 16, 16},
        std::array<std::int64_t, 3>{5, 64, 32},
        std::array<std::int64_t, 3>{13, 100, 7},
        std::array<std::int64_t, 3>{2, 256, 1024},
        std::array<std::int64_t, 3>{64, 256, 256},
        std::array<std::int64_t, 3>{99, 256, 256}}) {
    const Tensor in = Tensor::uniform(Shape{rows, k}, rng, -1.0f, 1.0f);
    const Tensor w = Tensor::uniform(Shape{m, k}, rng, -1.0f, 1.0f);
    Tensor wt(Shape{k, m});
    for (std::int64_t i = 0; i < m; ++i)
      for (std::int64_t p = 0; p < k; ++p)
        wt.data()[p * m + i] = w.data()[i * k + p];
    Tensor wp(Shape{k, m});
    kernels::pack_strips(w.data(), wp.data(), m, k);

    Tensor by_gemv(Shape{rows, m});
    for (std::int64_t r = 0; r < rows; ++r)
      kernels::gemv(w.data(), in.row(r), by_gemv.row(r), m, k);
    for (const kernels::detail::Isa isa : kernels::detail::supported_isas()) {
      Tensor by_gemm(Shape{rows, m});
      kernels::detail::gemm_with(isa, in.data(), wt.data(), by_gemm.data(),
                                 rows, k, m, /*accumulate=*/false);
      Tensor by_packed(Shape{rows, m});
      kernels::detail::gemm_packed_with(isa, in.data(), wp.data(),
                                        by_packed.data(), rows, k, m, 0, m);
      Tensor by_isa_gemv(Shape{rows, m});
      for (std::int64_t r = 0; r < rows; ++r)
        kernels::detail::gemv_with(isa, w.data(), in.row(r),
                                   by_isa_gemv.row(r), m, k);
      for (std::int64_t i = 0; i < rows * m; ++i) {
        ASSERT_EQ(by_gemm.data()[i], by_gemv.data()[i])
            << kernels::detail::isa_name(isa) << " rows=" << rows
            << " k=" << k << " m=" << m << " elem " << i;
        ASSERT_EQ(by_packed.data()[i], by_gemv.data()[i])
            << kernels::detail::isa_name(isa) << " packed rows=" << rows
            << " k=" << k << " m=" << m << " elem " << i;
        ASSERT_EQ(by_isa_gemv.data()[i], by_gemv.data()[i])
            << kernels::detail::isa_name(isa) << " gemv rows=" << rows
            << " k=" << k << " m=" << m << " elem " << i;
      }
    }
  }
}

TEST(PanelKernels, GemmColsBitIdenticalToTheSameColumnsOfFullGemm) {
  // The column-split contract: a team member computing columns [j0, j1)
  // of a product over the packed weight writes exactly those columns of
  // the full row-major gemm, bit for bit, and nothing else — in every
  // variant, at panel heights 1..5, for ranges that start and end off the
  // 16-float vector grid, inside and across 64-column strips and in tails.
  Rng rng(23);
  for (const auto [k, n] : {std::array<std::int64_t, 2>{3, 7},
                            std::array<std::int64_t, 2>{64, 48},
                            std::array<std::int64_t, 2>{100, 141},
                            std::array<std::int64_t, 2>{256, 256}}) {
    // B = W^T for the (n, k) weight the executor packs.
    const Tensor w = Tensor::uniform(Shape{n, k}, rng, -1.0f, 1.0f);
    Tensor b(Shape{k, n});
    for (std::int64_t j = 0; j < n; ++j)
      for (std::int64_t p = 0; p < k; ++p)
        b.data()[p * n + j] = w.data()[j * k + p];
    Tensor bp(Shape{k, n});
    kernels::pack_strips(w.data(), bp.data(), n, k);
    for (std::int64_t m = 1; m <= 5; ++m) {
      const Tensor a = Tensor::uniform(Shape{m, k}, rng, -1.0f, 1.0f);
      for (const kernels::detail::Isa isa :
           kernels::detail::supported_isas()) {
        Tensor full(Shape{m, n});
        kernels::detail::gemm_with(isa, a.data(), b.data(), full.data(), m,
                                   k, n, /*accumulate=*/false);
        for (int draw = 0; draw < 12; ++draw) {
          std::int64_t j0 = static_cast<std::int64_t>(
              rng.next_below(static_cast<std::uint64_t>(n + 1)));
          std::int64_t j1 = static_cast<std::int64_t>(
              rng.next_below(static_cast<std::uint64_t>(n + 1)));
          if (draw == 0) j0 = 0, j1 = n;
          if (j0 > j1) std::swap(j0, j1);
          Tensor part(Shape{m, n});
          kernels::fill(part.data(), -3.0f, m * n);
          kernels::detail::gemm_packed_with(isa, a.data(), bp.data(),
                                            part.data(), m, k, n, j0, j1);
          for (std::int64_t i = 0; i < m; ++i)
            for (std::int64_t j = 0; j < n; ++j) {
              const float want =
                  j >= j0 && j < j1 ? full.data()[i * n + j] : -3.0f;
              ASSERT_EQ(part.data()[i * n + j], want)
                  << kernels::detail::isa_name(isa) << " m=" << m
                  << " k=" << k << " n=" << n << " cols [" << j0 << ", "
                  << j1 << ") elem (" << i << ", " << j << ")";
            }
        }
      }
    }
  }
  // The public entry point runs the selected variant.
  const Tensor a = Tensor::uniform(Shape{2, 32}, rng, -1.0f, 1.0f);
  const Tensor w = Tensor::uniform(Shape{40, 32}, rng, -1.0f, 1.0f);
  Tensor bp(Shape{32, 40});
  kernels::pack_strips(w.data(), bp.data(), 40, 32);
  Tensor full(Shape{2, 40});
  Tensor part(Shape{2, 40});
  kernels::gemm_packed(a.data(), bp.data(), full.data(), 2, 32, 40, 0, 40);
  kernels::gemm_packed(a.data(), bp.data(), part.data(), 2, 32, 40, 0, 17);
  kernels::gemm_packed(a.data(), bp.data(), part.data(), 2, 32, 40, 17, 40);
  for (std::int64_t i = 0; i < 80; ++i)
    ASSERT_EQ(part.data()[i], full.data()[i]) << "elem " << i;
}

TEST(PanelKernels, TiledGemmMatchesNaiveReference) {
  Rng rng(19);
  for (const auto [mm, kk, nn] :
       {std::array<std::int64_t, 3>{5, 7, 3},
        std::array<std::int64_t, 3>{9, 65, 17}}) {
    const Tensor a = Tensor::uniform(Shape{mm, kk}, rng, -1.0f, 1.0f);
    const Tensor b = Tensor::uniform(Shape{kk, nn}, rng, -1.0f, 1.0f);
    Tensor c(Shape{mm, nn});
    Tensor c_ref(Shape{mm, nn});
    kernels::gemm(a.data(), b.data(), c.data(), mm, kk, nn);
    kernels::gemm_naive(a.data(), b.data(), c_ref.data(), mm, kk, nn);
    for (std::int64_t i = 0; i < mm * nn; ++i)
      ASSERT_NEAR(c.data()[i], c_ref.data()[i], 1e-4f);
  }
}

TEST(PanelKernels, GatherRowsStridedPullsColumnSlices) {
  // table rows of stride 4; gather the [1, 3) column slice of rows 2,0,2,
  // into a dense panel and into columns [1, 3) of rows 3 floats apart.
  const std::vector<float> table = {0, 1, 2, 3,  10, 11, 12, 13,
                                    20, 21, 22, 23};
  const std::vector<std::int32_t> idx = {2, 0, 2};
  std::vector<float> out(6, -1.0f);
  kernels::gather_rows_strided(table.data() + 1, 4, idx.data(), out.data(),
                               2, 3, 2);
  EXPECT_EQ(out, (std::vector<float>{21, 22, 1, 2, 21, 22}));
  std::vector<float> rows(9, -1.0f);
  kernels::gather_rows_strided(table.data() + 1, 4, idx.data(),
                               rows.data() + 1, 3, 3, 2);
  EXPECT_EQ(rows, (std::vector<float>{-1, 21, 22, -1, 1, 2, -1, 21, 22}));
}

TEST(PanelKernels, ChildSumStartsFromPositiveZero) {
  // A child sum is 0 + x0 + x1 + ..., from +0: with a -0.0f child row the
  // panel must give +0.0f where a "copy the first child" shortcut keeps
  // -0.0f. Rows with two children, one child and none (a DAG source),
  // bitwise against the per-node oracle.
  models::CellProgram cell;
  cell.state_width = 4;
  models::CellOp leaf;
  leaf.kind = models::CellOpKind::kLeafConst;
  leaf.out = "st";
  leaf.width = 4;
  leaf.constant = -0.0;
  models::CellOp sum;
  sum.kind = models::CellOpKind::kChildSum;
  sum.out = "st";
  sum.width = 4;
  cell.leaf_ops = {leaf};
  cell.internal_ops = {sum};
  const models::ModelParams params;
  // Rows 0 and 1 are children; 2, 3 and 4 the summed nodes.
  std::vector<float> states = {-0.0f, 1.5f, -0.0f, -2.0f,
                               -0.0f, -0.0f, 3.0f, -0.0f};
  states.resize(20, std::nanf(""));
  const std::vector<std::int32_t> offsets = {0, 2, 3, 3};
  const std::vector<std::int32_t> ids = {0, 1, 1};
  const std::vector<std::int32_t> words = {0, 0, 0};
  const models::BatchedCellExecutor exec(cell, params);
  models::BatchedCellExecutor::Panels p;
  exec.run_batch(false, 3, words.data(), offsets.data(), ids.data(),
                 states.data(), states.data() + 8, p);
  models::CellExecutor oracle(cell, params);
  for (std::size_t r = 0; r < 3; ++r) {
    std::vector<const float*> children;
    for (std::int32_t c = offsets[r]; c < offsets[r + 1]; ++c)
      children.push_back(states.data() + 4 * ids[static_cast<std::size_t>(c)]);
    float want[4];
    oracle.run_node(false, children, 0, want);
    for (std::size_t i = 0; i < 4; ++i) {
      const float got = states[8 + 4 * r + i];
      EXPECT_FALSE(std::signbit(got) && got == 0.0f)
          << "row " << r << " col " << i << " sums to -0";
      EXPECT_EQ(std::memcmp(&got, &want[i], sizeof got), 0)
          << "row " << r << " col " << i << ": " << got << " vs " << want[i];
    }
  }
}

TEST(PanelEltwise, EvalPanelBitIdenticalToScalarEval) {
  // Every opcode, and the bare pushes e0, b[i] and 1.0, over a
  // [rows, width] panel vs element by element — the in-place interpreter
  // must agree bit for bit in every variant this host supports, across
  // its 256-float strip boundaries (widths 255 to 513) and through tanh's
  // saturation: inputs at ±5 and one ulp either side, at ±10 and one ulp
  // either side (sigmoid's tanh argument is x/2), infinities, NaNs,
  // signed zeros and denormals of both signs.
  // e1's rows are 9 floats wider than the op and the output's rows 3
  // wider: each row reads and writes only its first `width` floats. Each
  // program runs once more with its output the same buffer as e0 (in
  // place).
  using ra::add;
  using ra::call;
  using ra::mul;
  using ra::var;
  const ra::Expr e0 = var("e0");
  const ra::Expr e1 = var("e1");
  const ra::Expr bias = ra::load("b", {var("i")});
  const std::vector<ra::Expr> exprs = {
      call(ra::CallFn::kSigmoid, add(mul(e0, e1), bias)),
      mul(e0, call(ra::CallFn::kTanh, e1)),
      call(ra::CallFn::kTanh, e1),
      call(ra::CallFn::kSigmoid, e1),
      // sub, div, max, min, relu, exp, select and constants (one repeated,
      // one negative zero).
      ra::select(ra::sub(ra::binary(ra::BinOp::kMax, e0, e1),
                         ra::binary(ra::BinOp::kMin, e0, e1)),
                 ra::div(e0, add(e1, ra::fimm(0.5))),
                 call(ra::CallFn::kRelu,
                      ra::sub(call(ra::CallFn::kExp,
                                   ra::binary(ra::BinOp::kMin, e1,
                                              ra::fimm(4.0))),
                              mul(ra::fimm(0.5), ra::fimm(-0.0))))),
      // Two live operands at depth 3 before the outer add.
      add(mul(e0, e1), mul(e0, ra::sub(e1, bias))),
      // Ten distinct constants, each filled in its own strip.
      [&] {
        ra::Expr sum = e0;
        for (int k = 1; k <= 10; ++k) sum = add(sum, ra::fimm(0.25 * k));
        return mul(sum, ra::fimm(-3.0));
      }(),
      e0,
      bias,
      ra::fimm(1.0),
  };
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {0.0f,
                            -0.0f,
                            5.0f,
                            -5.0f,
                            std::nextafter(5.0f, inf),
                            std::nextafter(5.0f, 0.0f),
                            std::nextafter(-5.0f, -inf),
                            std::nextafter(-5.0f, 0.0f),
                            10.0f,
                            std::nextafter(10.0f, inf),
                            std::nextafter(10.0f, 0.0f),
                            -10.0f,
                            std::nextafter(-10.0f, -inf),
                            std::nextafter(-10.0f, 0.0f),
                            1e30f,
                            inf,
                            -inf,
                            std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            std::numeric_limits<float>::min() / 2.0f};
  const auto same = [](float got, float want) {
    return std::memcmp(&got, &want, sizeof got) == 0 ||
           (std::isnan(got) && std::isnan(want));
  };
  Rng rng(29);
  for (const ra::Expr& expr : exprs) {
    models::CompiledEltwise ce(expr);
    for (const std::int64_t width : {1, 17, 100, 255, 256, 257, 513}) {
      const std::int64_t rows = 5;
      Tensor in0 = Tensor::uniform(Shape{rows, width}, rng, -8.0f, 8.0f);
      const std::int64_t wide = width + 9;
      const std::int64_t out_stride = width + 3;
      Tensor in1 = Tensor::uniform(Shape{rows, wide}, rng, -8.0f, 8.0f);
      const Tensor b = Tensor::uniform(Shape{width}, rng, -2.0f, 2.0f);
      for (std::int64_t i = 0; i < rows * wide; i += 7)
        in1.data()[i] =
            specials[static_cast<std::size_t>(i / 7) % std::size(specials)];
      for (std::int64_t i = 3; i < rows * width; i += 11)
        in0.data()[i] =
            specials[static_cast<std::size_t>(i / 11) % std::size(specials)];

      const float* ins[2] = {in0.data(), in1.data()};
      const std::int64_t strides[2] = {width, wide};
      const float* params[1] = {b.data()};
      const auto want = [&](std::int64_t r, std::int64_t i) {
        const float* row_ins[2] = {in0.row(r), in1.row(r)};
        return ce.eval(i, row_ins, params);
      };
      for (const auto isa : kernels::detail::supported_isas()) {
        std::vector<float> panel(static_cast<std::size_t>(rows * out_stride),
                                 -3.0f);
        ce.eval_panel_with(isa, rows, width, ins, strides, params,
                           panel.data(), out_stride);
        // In place: the output is e0's own buffer, at e0's stride.
        std::vector<float> inplace(in0.data(), in0.data() + rows * width);
        const float* ins_inplace[2] = {inplace.data(), in1.data()};
        ce.eval_panel_with(isa, rows, width, ins_inplace, strides, params,
                           inplace.data(), width);
        for (std::int64_t r = 0; r < rows; ++r) {
          for (std::int64_t i = width; i < out_stride; ++i)
            ASSERT_EQ(panel[static_cast<std::size_t>(r * out_stride + i)],
                      -3.0f)
                << "wrote past row " << r;
          for (std::int64_t i = 0; i < width; ++i) {
            const float w = want(r, i);
            const float got =
                panel[static_cast<std::size_t>(r * out_stride + i)];
            const float got_inplace =
                inplace[static_cast<std::size_t>(r * width + i)];
            ASSERT_TRUE(same(got, w))
                << ra::to_string(expr) << " "
                << kernels::detail::isa_name(isa) << " width=" << width
                << " r=" << r << " i=" << i << ": " << got << " vs " << w;
            ASSERT_TRUE(same(got_inplace, w))
                << "in place: " << ra::to_string(expr) << " "
                << kernels::detail::isa_name(isa) << " width=" << width
                << " r=" << r << " i=" << i << ": " << got_inplace << " vs "
                << w;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace cortex::exec
