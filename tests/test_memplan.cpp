// Static memory planner (exec/memory_plan.hpp): unit tests on a
// miniature program, the plan-mutation kill battery (each seeded
// live-range/offset corruption must be flagged by verify_memory_plan
// with the right diagnostic code), the zoo x schedule differential
// battery (arena runs bit-identical to the per-buffer allocator), the
// Fig. 9 SeqLSTM footprint-reduction bound, and engine/pool parity at
// several thread/worker counts.

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "baselines/common.hpp"
#include "ds/generators.hpp"
#include "exec/engine.hpp"
#include "exec/engine_pool.hpp"
#include "exec/ilir_runner.hpp"
#include "exec/memory_plan.hpp"
#include "ilir/verify.hpp"
#include "lowering/lower.hpp"
#include "models/model_zoo.hpp"

namespace cortex::exec {
namespace {

using ilir::Buffer;
using ilir::make_for;
using ilir::make_seq;
using ilir::make_store;
using ilir::Program;
using ra::imm;
using ra::var;
using support::Diagnostic;

std::set<std::string> codes(const std::vector<Diagnostic>& diags) {
  std::set<std::string> out;
  for (const Diagnostic& d : diags) out.insert(d.code);
  return out;
}

/// Miniature straight-line pipeline with a reusable producer/consumer
/// chain and one zero-relying accumulator:
///   L1: a[i] = 1            a live [1,3]
///   L2: b[i] = a[i] * 2     b live [3,7]
///   L3: acc[i] += b[i]      acc live [5,9], read-before-write
///   L4: c[i] = b[i]         c live [7,9]
///   L5: out[i] = c[i]+acc[i]  out live [9, end] via live_out
/// a/c can share a slot, out can share with b, acc gets its own.
struct MiniFixture {
  Program p;
  MemoryPlanOptions opts;

  MiniFixture() {
    p.name = "memplan_mini";
    p.dim_extents.emplace_back("d_node", var("N"));
    p.params = {"N"};
    for (const char* name : {"a", "acc", "b", "c", "out"}) {
      Buffer buf;
      buf.name = name;
      buf.shape = {var("N")};
      buf.dims = {"d_node"};
      p.buffers.push_back(buf);
    }
    auto loop = [](const char* v, ilir::Stmt body) {
      return make_for(v, imm(0), var("N"), std::move(body),
                      ilir::ForKind::kSerial, false, false, "d_node");
    };
    p.body = make_seq({
        loop("i", make_store("a", {var("i")}, ra::fimm(1.0f))),
        loop("i", make_store("b", {var("i")},
                             ra::mul(ra::load("a", {var("i")}),
                                     ra::fimm(2.0f)))),
        loop("i", make_store("acc", {var("i")},
                             ra::add(ra::load("acc", {var("i")}),
                                     ra::load("b", {var("i")})))),
        loop("i", make_store("c", {var("i")}, ra::load("b", {var("i")}))),
        loop("i", make_store("out", {var("i")},
                             ra::add(ra::load("c", {var("i")}),
                                     ra::load("acc", {var("i")})))),
    });
    opts.live_out = {"out"};
  }
};

// -- liveness / planning units -------------------------------------------------

TEST(MemPlanLiveness, ProducerConsumerChainRanges) {
  MiniFixture f;
  const ilir::LivenessInfo live = ilir::analyze_liveness(f.p);
  ASSERT_TRUE(live.ranges.count("a"));
  const ilir::LiveRange& a = live.ranges.at("a");
  const ilir::LiveRange& b = live.ranges.at("b");
  const ilir::LiveRange& acc = live.ranges.at("acc");
  // a dies at b's production; they overlap exactly there.
  EXPECT_EQ(a.end, b.begin);
  EXPECT_FALSE(a.read_before_write);  // loop-nested write covers the read
  EXPECT_TRUE(acc.read_before_write);  // accumulator reads the zero-fill
  EXPECT_EQ(live.num_positions, 10);
}

TEST(MemPlan, DisjointBuffersShareSlotsZeroInitDoesNot) {
  MiniFixture f;
  const MemoryPlan plan = plan_memory(f.p, f.opts);
  ASSERT_EQ(plan.entries.size(), 5u);
  EXPECT_EQ(plan.slots.size(), 3u);
  EXPECT_EQ(plan.buffers_reused, 2);
  const BufferPlanEntry* a = plan.find("a");
  const BufferPlanEntry* c = plan.find("c");
  const BufferPlanEntry* acc = plan.find("acc");
  ASSERT_TRUE(a && c && acc);
  EXPECT_EQ(a->slot, c->slot);  // disjoint lives share bytes
  EXPECT_TRUE(acc->zero_init);
  EXPECT_FALSE(acc->reused_slot);  // zero-relying buffers get virgin slots
  // The live_out output must not be overlapped by anything later: it is
  // the last-live member of its slot.
  const BufferPlanEntry* out = plan.find("out");
  ASSERT_TRUE(out);
  EXPECT_EQ(out->live_end, plan.num_positions);
  EXPECT_TRUE(codes(verify_memory_plan(f.p, plan, f.opts)).empty());
}

TEST(MemPlan, ResolvedArenaIsSmallerThanSumAndAligned) {
  MiniFixture f;
  const MemoryPlan plan = plan_memory(f.p, f.opts);
  const ResolvedArena arena = resolve_arena(plan, {{"N", 100}});
  // 5 buffers of 400B each; 3 slots of 400B rounded to 448B.
  EXPECT_EQ(arena.sum_buffer_bytes, 5 * 400);
  EXPECT_LT(arena.arena_bytes, arena.sum_buffer_bytes);
  for (std::int64_t off : arena.slot_offsets) EXPECT_EQ(off % 64, 0);
}

TEST(MemPlan, FingerprintIsDeterministic) {
  MiniFixture f;
  const auto fp1 = fingerprint(plan_memory(f.p, f.opts));
  const auto fp2 = fingerprint(plan_memory(f.p, f.opts));
  EXPECT_EQ(fp1, fp2);
  // Perturbing the program perturbs the plan digest.
  MemoryPlanOptions no_live_out;
  EXPECT_NE(fp1, fingerprint(plan_memory(f.p, no_live_out)));
}

TEST(MemPlan, DescribeNamesEverySlotMember) {
  MiniFixture f;
  const MemoryPlan plan = plan_memory(f.p, f.opts);
  const std::string d = plan.describe();
  for (const char* name : {"a", "acc", "b", "c", "out"})
    EXPECT_NE(d.find(name), std::string::npos) << d;
}

// -- mutation kill battery -----------------------------------------------------
// Each test seeds one corruption into a sound plan and asserts
// verify_memory_plan reports the matching diagnostic code.

TEST(MemPlanMutation, RemovedEntryIsMissing) {
  MiniFixture f;
  MemoryPlan plan = plan_memory(f.p, f.opts);
  plan.entries.erase(plan.entries.begin());
  EXPECT_TRUE(codes(verify_memory_plan(f.p, plan, f.opts))
                  .count("memplan-missing"));
}

TEST(MemPlanMutation, DuplicatedEntryIsMissing) {
  MiniFixture f;
  MemoryPlan plan = plan_memory(f.p, f.opts);
  plan.entries.push_back(plan.entries.front());
  EXPECT_TRUE(codes(verify_memory_plan(f.p, plan, f.opts))
                  .count("memplan-missing"));
}

TEST(MemPlanMutation, ForeignEntryIsMissing) {
  MiniFixture f;
  MemoryPlan plan = plan_memory(f.p, f.opts);
  BufferPlanEntry ghost = plan.entries.front();
  ghost.buffer = "phantom";
  plan.entries.push_back(ghost);
  EXPECT_TRUE(codes(verify_memory_plan(f.p, plan, f.opts))
                  .count("memplan-missing"));
}

TEST(MemPlanMutation, OutOfRangeSlotIdIsSlot) {
  MiniFixture f;
  MemoryPlan plan = plan_memory(f.p, f.opts);
  plan.entries.front().slot = 99;
  EXPECT_TRUE(
      codes(verify_memory_plan(f.p, plan, f.opts)).count("memplan-slot"));
}

TEST(MemPlanMutation, ShrunkLiveRangeIsLiveness) {
  MiniFixture f;
  MemoryPlan plan = plan_memory(f.p, f.opts);
  BufferPlanEntry* b = const_cast<BufferPlanEntry*>(plan.find("b"));
  ASSERT_TRUE(b);
  b->live_end = b->live_begin;  // claims b dies right after production
  EXPECT_TRUE(codes(verify_memory_plan(f.p, plan, f.opts))
                  .count("memplan-liveness"));
}

TEST(MemPlanMutation, ForcedSlotSharingIsOverlap) {
  MiniFixture f;
  MemoryPlan plan = plan_memory(f.p, f.opts);
  // Move b into a's slot: b's live range intersects both a and c there.
  BufferPlanEntry* b = const_cast<BufferPlanEntry*>(plan.find("b"));
  const BufferPlanEntry* a = plan.find("a");
  ASSERT_TRUE(b && a);
  b->slot = a->slot;
  plan.slots[static_cast<std::size_t>(a->slot)].members.push_back("b");
  EXPECT_TRUE(codes(verify_memory_plan(f.p, plan, f.opts))
                  .count("memplan-overlap"));
}

TEST(MemPlanMutation, ShrunkSlotBytesIsSize) {
  MiniFixture f;
  MemoryPlan plan = plan_memory(f.p, f.opts);
  plan.slots[0].bytes = imm(4);  // one float for an [N] buffer
  EXPECT_TRUE(
      codes(verify_memory_plan(f.p, plan, f.opts)).count("memplan-size"));
}

TEST(MemPlanMutation, StaleEntryBytesIsSize) {
  MiniFixture f;
  MemoryPlan plan = plan_memory(f.p, f.opts);
  plan.entries.front().bytes = imm(12345);
  EXPECT_TRUE(
      codes(verify_memory_plan(f.p, plan, f.opts)).count("memplan-size"));
}

TEST(MemPlanMutation, ClearedZeroInitFlagIsZero) {
  MiniFixture f;
  MemoryPlan plan = plan_memory(f.p, f.opts);
  BufferPlanEntry* acc = const_cast<BufferPlanEntry*>(plan.find("acc"));
  ASSERT_TRUE(acc);
  acc->zero_init = false;
  EXPECT_TRUE(
      codes(verify_memory_plan(f.p, plan, f.opts)).count("memplan-zero"));
}

TEST(MemPlanMutation, EarlierLiveNeighbourOfZeroInitIsZero) {
  MiniFixture f;
  MemoryPlan plan = plan_memory(f.p, f.opts);
  // Move a (dead before acc's first read) into acc's slot: no overlap,
  // but a's stores dirty the zero-fill acc relies on.
  BufferPlanEntry* a = const_cast<BufferPlanEntry*>(plan.find("a"));
  const BufferPlanEntry* acc = plan.find("acc");
  ASSERT_TRUE(a && acc);
  a->slot = acc->slot;
  plan.slots[static_cast<std::size_t>(acc->slot)].members.push_back("a");
  const auto cs = codes(verify_memory_plan(f.p, plan, f.opts));
  EXPECT_TRUE(cs.count("memplan-zero")) << support::format(
      verify_memory_plan(f.p, plan, f.opts));
  EXPECT_FALSE(cs.count("memplan-overlap"));
}

TEST(MemPlanMutation, OrThrowListsCode) {
  MiniFixture f;
  MemoryPlan plan = plan_memory(f.p, f.opts);
  plan.entries.front().slot = 99;
  try {
    verify_memory_plan_or_throw(f.p, plan, "test-phase", f.opts);
    FAIL() << "expected cortex::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("memplan-slot"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test-phase"), std::string::npos);
  }
}

// -- zoo x schedule differential battery ---------------------------------------

std::vector<models::ModelDef> zoo() {
  std::vector<models::ModelDef> defs;
  defs.push_back(models::make_treefc(16));
  defs.push_back(models::make_treefc_embed(16));
  defs.push_back(models::make_dagrnn(16));
  defs.push_back(models::make_treegru(16));
  defs.push_back(models::make_treegru_embed(16));
  defs.push_back(models::make_simple_treegru(16));
  defs.push_back(models::make_treelstm(16));
  defs.push_back(models::make_treelstm_embed(16));
  defs.push_back(models::make_mvrnn(8));
  defs.push_back(models::make_treernn(16));
  defs.push_back(models::make_treernn_fig1(16));
  defs.push_back(models::make_treernn_zeroleaf(16));
  defs.push_back(models::make_seq_lstm(16));
  defs.push_back(models::make_seq_gru(16));
  return defs;
}

std::vector<std::pair<std::string, ra::Schedule>> schedule_variants(
    bool dag_model) {
  std::vector<std::pair<std::string, ra::Schedule>> out;
  out.emplace_back("default", ra::Schedule{});
  out.emplace_back("unoptimized", ra::Schedule::unoptimized());
  out.emplace_back("cavs_comparable", ra::Schedule::cavs_comparable());
  {
    ra::Schedule s;
    s.dynamic_batching = false;
    out.emplace_back("no_dynamic_batching", s);
  }
  {
    ra::Schedule s;
    s.loop_peeling = false;
    out.emplace_back("no_peeling", s);
  }
  {
    ra::Schedule s;
    s.dense_intermediates = false;
    out.emplace_back("no_dense_indexing", s);
  }
  if (!dag_model) {
    ra::Schedule s;
    s.unroll_depth = 2;
    s.persistence = false;  // Appendix D
    out.emplace_back("unrolled", s);
  }
  return out;
}

/// Bit-identical comparison: the arena run must reproduce the per-buffer
/// run's output bytes exactly (scratch buffers legitimately diverge once
/// their slots are reused, so only live-at-exit state is compared).
void expect_bit_identical(const Tensor& arena_out, const Tensor& plain_out,
                          const std::string& trace) {
  ASSERT_EQ(arena_out.shape(), plain_out.shape()) << trace;
  EXPECT_EQ(std::memcmp(arena_out.data(), plain_out.data(),
                        static_cast<std::size_t>(arena_out.numel()) *
                            sizeof(float)),
            0)
      << trace << ": arena run diverged from per-buffer run, max diff = "
      << max_abs_diff(arena_out, plain_out);
}

TEST(MemPlanDifferential, ZooTimesSchedulesArenaMatchesPerBuffer) {
  Rng rng(23);
  for (const models::ModelDef& def : zoo()) {
    if (!def.model) continue;
    const models::ModelParams params = models::init_params(def, rng);
    const bool dag = def.name == "DAG-RNN";
    for (const auto& [label, schedule] : schedule_variants(dag)) {
      SCOPED_TRACE(def.name + " / " + label);
      const lowering::LoweredModel lm = lowering::lower(*def.model, schedule);
      linearizer::Linearized lin;
      if (def.model->kind == linearizer::StructureKind::kDag) {
        std::vector<std::unique_ptr<ds::Dag>> dags;
        for (int b = 0; b < 3; ++b) dags.push_back(ds::make_grid_dag(4, 4, rng));
        lin = linearizer::linearize_dags(baselines::raw(dags), lm.lin_spec);
      } else {
        auto trees = ds::make_sst_like_batch(3, rng);
        lin = linearizer::linearize_trees(baselines::raw(trees), lm.lin_spec);
      }
      // An empty plan places nothing, so every buffer gets its own
      // zeroed tensor: the per-buffer reference allocator.
      const MemoryPlan per_buffer;
      IlirRunOptions plain_opts;
      plain_opts.plan = &per_buffer;
      const IlirRun plain = run_ilir(lm.program, lin, params, plain_opts);
      const IlirRun arena = run_ilir(lm.program, lin, params);
      EXPECT_EQ(arena.barriers, plain.barriers);
      expect_bit_identical(arena.at(lm.output), plain.at(lm.output),
                           def.name + " / " + label);
      // The arena never exceeds what per-buffer allocation paid, and the
      // plain path's footprint accounting reports the per-buffer sum.
      EXPECT_LE(arena.arena_bytes, plain.arena_bytes);
      EXPECT_EQ(plain.arena_bytes, plain.sum_buffer_bytes);
      EXPECT_EQ(plain.buffers_reused, 0);
    }
  }
}

TEST(MemPlanDifferential, PrecomputedPlanMatchesLocalPlanning) {
  Rng rng(29);
  const models::ModelDef def = models::make_treelstm(16);
  const models::ModelParams params = models::init_params(def, rng);
  const CompiledIlir c = compile_ilir(*def.model, ra::Schedule{});
  auto trees = ds::make_sst_like_batch(3, rng);
  const linearizer::Linearized lin =
      linearizer::linearize_trees(baselines::raw(trees), c.lowered.lin_spec);
  IlirRunOptions with_plan;
  with_plan.plan = &c.memory;
  const IlirRun precomputed = run_ilir(c.optimized, lin, params, with_plan);
  const IlirRun local = run_ilir(c.optimized, lin, params);
  expect_bit_identical(precomputed.at(c.lowered.output),
                       local.at(c.lowered.output), "precomputed vs local");
  EXPECT_EQ(precomputed.arena_bytes, local.arena_bytes);
  EXPECT_EQ(precomputed.buffers_reused, local.buffers_reused);
}

// -- Fig. 9 SeqLSTM footprint bound --------------------------------------------

TEST(MemPlanFootprint, SeqLstmArenaAtLeastThirtyPercentSmaller) {
  Rng rng(37);
  const models::ModelDef def = models::make_seq_lstm(64);
  const models::ModelParams params = models::init_params(def, rng);
  const lowering::LoweredModel lm =
      lowering::lower(*def.model, ra::Schedule{});
  auto chain = ds::make_chain_tree(50, rng);
  std::vector<const ds::Tree*> trees{chain.get()};
  const linearizer::Linearized lin =
      linearizer::linearize_trees(trees, lm.lin_spec);
  const IlirRun run = run_ilir(lm.program, lin, params);
  EXPECT_GT(run.buffers_reused, 0);
  ASSERT_GT(run.sum_buffer_bytes, 0);
  const double ratio = static_cast<double>(run.arena_bytes) /
                       static_cast<double>(run.sum_buffer_bytes);
  EXPECT_LE(ratio, 0.7) << "arena " << run.arena_bytes << "B vs sum "
                        << run.sum_buffer_bytes << "B (" << ratio * 100
                        << "%): buffer reuse regressed below the 30% bar";
}

// -- engine / pool parity at thread and worker counts --------------------------

TEST(MemPlanParity, EngineAndPoolBitIdenticalAcrossPlannerModes) {
  Rng rng(41);
  const models::ModelDef def = models::make_treelstm(16);
  const models::ModelParams params = models::init_params(def, rng);
  auto trees = ds::make_sst_like_batch(6, rng);
  const std::vector<const ds::Tree*> raw = baselines::raw(trees);
  const runtime::DeviceSpec spec = runtime::DeviceSpec::v100_gpu();

  // The served path never runs the ILIR interpreter, so no memory plan
  // reaches it: results must not depend on thread or worker count.
  std::vector<float> reference;
  for (const int threads : {1, 4}) {
    CortexEngine engine(def, params, ra::Schedule{}, spec);
    engine.set_num_threads(threads);
    const runtime::RunResult r = engine.run(raw);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ASSERT_FALSE(r.root_states.empty());
    if (reference.empty()) reference = r.root_states[0];
    EXPECT_EQ(r.root_states[0], reference);
  }
  for (const int workers : {1, 4}) {
    EnginePool pool(def, params, ra::Schedule{}, spec,
                    EnginePoolOptions{workers});
    const runtime::RunResult r = pool.run(raw);
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ASSERT_FALSE(r.root_states.empty());
    EXPECT_EQ(r.root_states[0], reference);
  }
}

// -- pipeline sweep with the overlap check on ----------------------------------

TEST(MemPlanPipeline, ZooFinalProgramsPlanVerifierClean) {
  // compile_ilir re-plans and re-proves after every pass; this re-checks
  // the final optimized program explicitly and pins the returned plan.
  for (const models::ModelDef& def : zoo()) {
    if (!def.model) continue;
    const bool dag = def.name == "DAG-RNN";
    for (const auto& [label, schedule] : schedule_variants(dag)) {
      SCOPED_TRACE(def.name + " / " + label);
      CompiledIlir c;
      ASSERT_NO_THROW(c = compile_ilir(*def.model, schedule));
      MemoryPlanOptions opts;
      opts.live_out = {c.lowered.output};
      const auto diags = verify_memory_plan(c.optimized, c.memory, opts);
      EXPECT_FALSE(support::has_errors(diags))
          << def.name << " / " << label << ":\n" << support::format(diags);
      // Determinism: replanning yields the same digest.
      EXPECT_EQ(fingerprint(c.memory),
                fingerprint(plan_memory(c.optimized, opts)));
    }
  }
}

}  // namespace
}  // namespace cortex::exec
