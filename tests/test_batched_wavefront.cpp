// Batched wavefront executor: a test-local per-node walk (exec_order
// through models::CellExecutor::run_node) is the regression oracle —
// every node state must be bit-identical to the engine's panel-GEMM path
// across the model zoo, schedules, batch sizes and thread counts. Plus the kernel-level contracts the executor is built
// on (panel GEMM == per-row GEMV bitwise, strided gather, transpose,
// vectorized eltwise == scalar eltwise), the profiler's panel counters,
// and EnginePool parity with batching enabled.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "baselines/common.hpp"
#include "ds/generators.hpp"
#include "exec/engine.hpp"
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
  if (def.model) spec.kind = def.model->kind;
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

/// The per-node oracle: walks lin.exec_order through
/// models::CellExecutor::run_node, one node at a time, into a fresh state
/// table, and returns every node state (N x state_width, row-major).
std::vector<float> per_node_states(const models::ModelDef& def,
                                   const models::ModelParams& params,
                                   const linearizer::Linearized& lin) {
  const models::CellExecutor cell(def.cell, params);
  const std::int64_t sw = def.cell.state_width;
  std::vector<float> states(static_cast<std::size_t>(lin.num_nodes * sw));
  models::CellExecutor::Scratch regs;
  std::vector<const float*> kids;
  for (const std::int32_t id : lin.exec_order) {
    const auto n = static_cast<std::size_t>(id);
    kids.clear();
    for (std::int32_t c = lin.child_offsets[n]; c < lin.child_offsets[n + 1];
         ++c)
      kids.push_back(states.data() +
                     lin.child_ids[static_cast<std::size_t>(c)] * sw);
    cell.run_node(kids.empty(), kids, lin.word[n], states.data() + id * sw,
                  regs);
  }
  return states;
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
        if (engine.plan().dynamic_batching) {
          EXPECT_GT(batched.profiler.batched_panels, 0);
          EXPECT_LE(batched.profiler.max_panel_rows, lin.max_batch_length());
          if (engine.plan().host_panel_gemms_internal > 0 &&
              lin.num_batches() > 1) {
            EXPECT_GT(batched.profiler.batched_gemm_calls, 0);
          }
        } else {
          // The schedule selects the per-node walk: no panels at all.
          EXPECT_EQ(batched.profiler.batched_panels, 0);
          EXPECT_EQ(batched.profiler.batched_gemm_calls, 0);
        }
        if (threads == 1) {
          first = batched;
        } else {
          // Device accounting is independent of the host thread count.
          EXPECT_EQ(batched.profiler.kernel_launches,
                    first.profiler.kernel_launches);
          EXPECT_EQ(batched.profiler.device_flops,
                    first.profiler.device_flops);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, BatchedZoo, ::testing::Range(0, 9));

// -- exact panel accounting at one thread -----------------------------------------

TEST(BatchedProfile, SingleThreadCountsMatchPlanMetadata) {
  // One thread, homogeneous wavefronts: exactly one panel per dynamic
  // batch, and the plan's per-batch matvec counts pin the GEMM total.
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
    const Plan& plan = engine.plan();
    const std::int64_t windows = c.hoisted > 0 ? 1 : 0;

    EXPECT_EQ(r.profiler.batched_panels, lin.num_batches()) << def.name;
    EXPECT_EQ(r.profiler.max_panel_rows, lin.max_batch_length()) << def.name;
    EXPECT_EQ(r.profiler.batched_gemm_calls,
              plan.host_panel_gemms_leaf + windows * c.hoisted +
                  (lin.num_batches() - 1) *
                      (plan.host_panel_gemms_internal - c.hoisted))
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
  const CortexEngine probe(def, params, ra::Schedule{}, gpu());
  EXPECT_EQ(expect_matches_per_node(def, params, lin),
            (lin.num_batches() - 1) * probe.plan().host_panel_gemms_internal);
}

// -- non-dynamic-batching schedules never touch the batched path ------------------

TEST(BatchedDispatch, NoDynamicBatchingFallsBackToPerNode) {
  const models::ModelDef def = models::make_treelstm_embed(16);
  Rng rng(11);
  const models::ModelParams params = models::init_params(def, rng);
  const linearizer::Linearized lin = lin_for(def, 4, 11);

  ra::Schedule s;
  s.dynamic_batching = false;
  CortexEngine unbatched(def, params, s, gpu());
  const runtime::RunResult r = unbatched.run_linearized(lin, 0.0);
  EXPECT_EQ(r.profiler.batched_gemm_calls, 0);
  EXPECT_EQ(r.profiler.batched_panels, 0);

  // Same numerics as the per-node oracle and the dynamic-batching
  // engine, bit for bit.
  EXPECT_EQ(r.root_states,
            roots_of(per_node_states(def, params, lin), lin,
                     def.cell.state_width));
  CortexEngine batched(def, params, ra::Schedule{}, gpu());
  const runtime::RunResult rb = batched.run_linearized(lin, 0.0);
  EXPECT_EQ(rb.root_states, r.root_states);
}

// -- panel-incompatible cells fall back, not fail ---------------------------------

TEST(BatchedDispatch, PanelIncompatibleCellFallsBackToPerNode) {
  // An eltwise op reading a register WIDER than its output is legal for
  // per-node execution (it reads the first op.width elements) but has no
  // panel layout. Engine construction must succeed — even with batching
  // requested — and runs must take the per-node path.
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
  const models::BatchedCellExecutor direct(def.cell, params);
  EXPECT_FALSE(direct.supported());

  Rng rng(31);
  auto trees = ds::make_sst_like_batch(2, rng);
  const std::vector<const ds::Tree*> raw = baselines::raw(trees);
  CortexEngine engine(def, params, ra::Schedule{}, gpu());
  const runtime::RunResult got = engine.run(raw);
  // A cell-only model linearizes with the default spec (no lowered one).
  const linearizer::Linearized lin =
      linearizer::linearize_trees(raw, linearizer::LinearizerSpec{});
  EXPECT_EQ(got.profiler.batched_panels, 0);
  EXPECT_EQ(got.profiler.batched_gemm_calls, 0);
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

// -- kernel-level contracts the executor is built on ------------------------------

TEST(PanelKernels, PanelGemmBitIdenticalToPerRowGemv) {
  // The load-bearing numerics contract: C = In @ W^T computed by
  // kernels::gemm must equal per-row kernels::gemv bit for bit, for sizes
  // exercising every tile/tail path, in every GEMM variant this host
  // supports (kernels::gemm runs the one selected at load).
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
    kernels::transpose(w.data(), wt.data(), m, k);

    Tensor by_gemv(Shape{rows, m});
    for (std::int64_t r = 0; r < rows; ++r)
      kernels::gemv(w.data(), in.row(r), by_gemv.row(r), m, k);
    for (const kernels::detail::Isa isa : kernels::detail::supported_isas()) {
      Tensor by_gemm(Shape{rows, m});
      kernels::detail::gemm_with(isa, in.data(), wt.data(), by_gemm.data(),
                                 rows, k, m, /*accumulate=*/false);
      for (std::int64_t i = 0; i < rows * m; ++i)
        ASSERT_EQ(by_gemm.data()[i], by_gemv.data()[i])
            << kernels::detail::isa_name(isa) << " rows=" << rows
            << " k=" << k << " m=" << m << " elem " << i;
    }
  }
}

TEST(PanelKernels, GemmColsBitIdenticalToTheSameColumnsOfFullGemm) {
  // The column-split contract: a team member computing columns [j0, j1)
  // of a product writes exactly those columns of the full gemm, bit for
  // bit, and nothing else — in every variant, at panel heights 1..5, for
  // ranges that start and end off the 16-float vector grid and in tails.
  Rng rng(23);
  for (const auto [k, n] : {std::array<std::int64_t, 2>{3, 7},
                            std::array<std::int64_t, 2>{64, 48},
                            std::array<std::int64_t, 2>{100, 141},
                            std::array<std::int64_t, 2>{256, 256}}) {
    for (std::int64_t m = 1; m <= 5; ++m) {
      const Tensor a = Tensor::uniform(Shape{m, k}, rng, -1.0f, 1.0f);
      const Tensor b = Tensor::uniform(Shape{k, n}, rng, -1.0f, 1.0f);
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
          kernels::detail::gemm_cols_with(isa, a.data(), b.data(),
                                          part.data(), m, k, n, j0, j1,
                                          /*accumulate=*/false);
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
  const Tensor b = Tensor::uniform(Shape{32, 40}, rng, -1.0f, 1.0f);
  Tensor full(Shape{2, 40});
  Tensor part(Shape{2, 40});
  kernels::gemm(a.data(), b.data(), full.data(), 2, 32, 40);
  kernels::gemm_cols(a.data(), b.data(), part.data(), 2, 32, 40, 0, 17);
  kernels::gemm_cols(a.data(), b.data(), part.data(), 2, 32, 40, 17, 40);
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
  // table rows of stride 4; gather the [1, 3) column slice of rows 2,0,2.
  const std::vector<float> table = {0, 1, 2, 3,  10, 11, 12, 13,
                                    20, 21, 22, 23};
  const std::vector<std::int32_t> idx = {2, 0, 2};
  std::vector<float> out(6, -1.0f);
  kernels::gather_rows_strided(table.data() + 1, 4, idx.data(), out.data(),
                               3, 2);
  EXPECT_EQ(out, (std::vector<float>{21, 22, 1, 2, 21, 22}));
}

TEST(PanelKernels, TransposeRoundTrips) {
  Rng rng(23);
  const Tensor a = Tensor::uniform(Shape{3, 5}, rng);
  Tensor t(Shape{5, 3});
  kernels::transpose(a.data(), t.data(), 3, 5);
  for (std::int64_t i = 0; i < 3; ++i)
    for (std::int64_t p = 0; p < 5; ++p)
      EXPECT_EQ(t.data()[p * 3 + i], a.data()[i * 5 + p]);
}

TEST(PanelEltwise, EvalPanelBitIdenticalToScalarEval) {
  // sigmoid(e0 * e1 + b[i]) and e0 * tanh(e1) over a [rows, width] panel vs
  // element by element — the vectorized interpreter must agree bit for
  // bit in every variant this host supports, across its strip boundary
  // (width > 64) and through tanh's saturation (|x| > 5), infinities,
  // NaNs, signed zeros and denormals.
  const ra::Expr sig =
      ra::call(ra::CallFn::kSigmoid,
               ra::add(ra::mul(ra::var("e0"), ra::var("e1")),
                       ra::load("b", {ra::var("i")})));
  const ra::Expr tanh_gate =
      ra::mul(ra::var("e0"), ra::call(ra::CallFn::kTanh, ra::var("e1")));
  const float specials[] = {0.0f,
                            -0.0f,
                            5.0f,
                            -5.0f,
                            1e30f,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::denorm_min()};
  Rng rng(29);
  for (const ra::Expr& expr : {sig, tanh_gate}) {
    models::CompiledEltwise ce(expr);
    for (const std::int64_t width : {1, 17, 100, 257}) {
      const std::int64_t rows = 5;
      Tensor in0 = Tensor::uniform(Shape{rows, width}, rng, -8.0f, 8.0f);
      Tensor in1 = Tensor::uniform(Shape{rows, width}, rng, -8.0f, 8.0f);
      const Tensor bias = Tensor::uniform(Shape{width}, rng, -2.0f, 2.0f);
      for (std::int64_t i = 0; i < rows * width; i += 7)
        in1.data()[i] =
            specials[static_cast<std::size_t>(i / 7) % std::size(specials)];

      const float* ins[2] = {in0.data(), in1.data()};
      const float* params[1] = {bias.data()};
      for (const auto isa : kernels::detail::supported_isas()) {
        std::vector<float> panel(static_cast<std::size_t>(rows * width));
        ce.eval_panel_with(isa, rows, width, ins, params, panel.data());
        for (std::int64_t r = 0; r < rows; ++r)
          for (std::int64_t i = 0; i < width; ++i) {
            const float* row_ins[2] = {in0.row(r), in1.row(r)};
            const float got = panel[static_cast<std::size_t>(r * width + i)];
            const float want = ce.eval(i, row_ins, params);
            std::uint32_t got_bits = 0, want_bits = 0;
            std::memcpy(&got_bits, &got, sizeof got);
            std::memcpy(&want_bits, &want, sizeof want);
            ASSERT_TRUE(got_bits == want_bits ||
                        (std::isnan(got) && std::isnan(want)))
                << kernels::detail::isa_name(isa) << " width=" << width
                << " r=" << r << " i=" << i << ": " << got << " vs " << want;
          }
      }
    }
  }
}

}  // namespace
}  // namespace cortex::exec
