// ILIR static verifier (ilir/verify.hpp): the mutation-kill battery and
// the clean-pipeline sweep. Each mutation seeds one well-understood IR
// corruption into a well-formed program modeled on the lowered dynamic-
// batching form and asserts the verifier flags it with the right
// diagnostic class; the sweep compiles the full model zoo across
// schedule variants (exec::compile_ilir verifies every stage) and
// requires every pipeline stage to be verifier-clean.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "exec/ilir_runner.hpp"
#include "ilir/passes.hpp"
#include "ilir/verify.hpp"
#include "models/model_zoo.hpp"

namespace cortex::ilir {
namespace {

using ra::imm;
using ra::var;
using support::Diagnostic;

std::set<std::string> codes(const std::vector<Diagnostic>& diags) {
  std::set<std::string> out;
  for (const Diagnostic& d : diags) out.insert(d.code);
  return out;
}

/// A well-formed miniature of the lowered + optimized dynamic-batching
/// form: a dependence-carrying batch loop, a barrier per iteration, a
/// parallel node loop, a dense-indexed shared intermediate, and an
/// indirect cross-iteration read (out[child(node, 0)]).
struct Fixture {
  Program p;

  Fixture() {
    p.name = "verify_fixture";
    p.dim_extents.emplace_back("d_node", var("N"));
    p.dim_extents.emplace_back("d_hidden", imm(8));
    p.dim_extents.emplace_back("d_batch", var("max_batch_size"));
    p.dim_extents.emplace_back("d_all_batches", var("num_batches"));
    p.params = {"N", "num_batches", "max_batch_size"};

    Buffer out;
    out.name = "out";
    out.shape = {var("N"), imm(8)};
    out.dims = {"d_node", "d_hidden"};
    p.buffers.push_back(out);

    Buffer tmp;
    tmp.name = "tmp";
    tmp.shape = {var("max_batch_size"), imm(8)};
    tmp.dims = {"d_batch", "d_hidden"};
    tmp.scope = MemScope::kShared;
    p.buffers.push_back(tmp);

    for (const char* name : {"batch_begin", "batch_length"}) {
      Buffer b;
      b.name = name;
      b.shape = {var("num_batches")};
      b.dtype = ra::DType::kInt;
      p.buffers.push_back(b);
    }

    p.body = make_seq({make_for(
        "b_idx", imm(0), var("num_batches"),
        make_seq({make_barrier(), node_loop()}), ForKind::kSerial,
        /*carries_dependence=*/true, /*is_node_loop=*/false,
        "d_all_batches")});
  }

  /// parallel for n_idx: let node = batch_begin[b_idx] + n_idx:
  ///   for i: tmp[n_idx, i] = out[child(node, 0), i]
  ///   for i: out[node, i]  = tmp[n_idx, i]
  static Stmt node_loop() {
    Stmt produce = make_for(
        "i", imm(0), imm(8),
        make_store("tmp", {var("n_idx"), var("i")},
                   ra::load("out", {ra::child(var("node"), 0), var("i")})),
        ForKind::kSerial, false, false, "d_hidden");
    Stmt consume = make_for(
        "i", imm(0), imm(8),
        make_store("out", {var("node"), var("i")},
                   ra::load("tmp", {var("n_idx"), var("i")})),
        ForKind::kSerial, false, false, "d_hidden");
    return make_for(
        "n_idx", imm(0), ra::load("batch_length", {var("b_idx")}),
        make_let("node",
                 ra::add(ra::load("batch_begin", {var("b_idx")}),
                         var("n_idx")),
                 make_seq({produce, consume}), "d_node"),
        ForKind::kParallel, false, /*is_node_loop=*/true, "d_batch");
  }
};

VerifyOptions with_barriers() {
  VerifyOptions opt;
  opt.require_barriers = true;
  return opt;
}

TEST(IlirVerify, FixtureIsClean) {
  Fixture f;
  const auto diags = verify(f.p, with_barriers());
  EXPECT_FALSE(support::has_errors(diags)) << support::format(diags);
}

// -- mutation-kill battery ----------------------------------------------------
// Each test corrupts the clean fixture in exactly one way and asserts
// the verifier reports the matching diagnostic class.

TEST(IlirVerifyMutation, DroppedLetIsDefUse) {
  Fixture f;
  // Strip the let binding of `node`, leaving its uses dangling.
  f.p.body = transform(f.p.body, [](const Stmt& s) -> Stmt {
    if (s->kind == StmtKind::kLet && s->var == "node") return s->body;
    return nullptr;
  });
  EXPECT_TRUE(codes(verify(f.p)).count("def-use"));
}

TEST(IlirVerifyMutation, BogusExtentSymbolIsDefUse) {
  Fixture f;
  f.p.body = transform(f.p.body, [](const Stmt& s) -> Stmt {
    if (s->kind == StmtKind::kFor && s->var == "b_idx")
      return make_for(s->var, s->min, var("num_batchez"), s->body,
                      s->fkind, s->carries_dependence, s->is_node_loop,
                      s->dim);
    return nullptr;
  });
  EXPECT_TRUE(codes(verify(f.p)).count("def-use"));
}

TEST(IlirVerifyMutation, UndeclaredBufferIsFlagged) {
  Fixture f;
  // Delete tmp's declaration; its accesses remain in the body.
  std::vector<Buffer> kept;
  for (const Buffer& b : f.p.buffers)
    if (b.name != "tmp") kept.push_back(b);
  f.p.buffers = std::move(kept);
  EXPECT_TRUE(codes(verify(f.p)).count("undeclared-buffer"));
}

TEST(IlirVerifyMutation, OffByOneIndexIsBounds) {
  Fixture f;
  // out[node, i + 1] reaches 8 but the extent is 8.
  f.p.body = transform(f.p.body, [](const Stmt& s) -> Stmt {
    if (s->kind == StmtKind::kStore && s->buffer == "out")
      return make_store("out",
                        {s->indices[0], ra::add(var("i"), imm(1))},
                        s->value);
    return nullptr;
  });
  EXPECT_TRUE(codes(verify(f.p)).count("bounds"));
}

TEST(IlirVerifyMutation, NegativeIndexIsBounds) {
  Fixture f;
  f.p.body = transform(f.p.body, [](const Stmt& s) -> Stmt {
    if (s->kind == StmtKind::kStore && s->buffer == "tmp")
      return make_store("tmp",
                        {s->indices[0], ra::sub(var("i"), imm(1))},
                        s->value);
    return nullptr;
  });
  EXPECT_TRUE(codes(verify(f.p)).count("bounds"));
}

TEST(IlirVerifyMutation, EnlargedLoopExtentIsBounds) {
  Fixture f;
  // The i loops run to 9; every i-indexed access overflows extent 8.
  f.p.body = transform(f.p.body, [](const Stmt& s) -> Stmt {
    if (s->kind == StmtKind::kFor && s->var == "i")
      return make_for(s->var, s->min, imm(9), s->body, s->fkind,
                      s->carries_dependence, s->is_node_loop, s->dim);
    return nullptr;
  });
  EXPECT_TRUE(codes(verify(f.p)).count("bounds"));
}

TEST(IlirVerifyMutation, RemovedBarrierIsFlagged) {
  Fixture f;
  f.p.body = transform(f.p.body, [](const Stmt& s) -> Stmt {
    if (s->kind == StmtKind::kBarrier)
      return make_comment("barrier removed by mutation");
    return nullptr;
  });
  // Only the barrier-presence check (post-insert_barriers) may flag
  // this: earlier pipeline stages are legitimately barrier-free.
  EXPECT_FALSE(support::has_errors(verify(f.p)));
  EXPECT_TRUE(codes(verify(f.p, with_barriers())).count("barrier"));
}

TEST(IlirVerifyMutation, TopLevelBarrierIsMisplaced) {
  Fixture f;
  f.p.body = make_seq({make_barrier(), f.p.body});
  EXPECT_TRUE(codes(verify(f.p)).count("barrier"));
}

TEST(IlirVerifyMutation, SharedBufferLiveAcrossBarrierIsScope) {
  Fixture f;
  // Rebuild the batch body as produce; barrier; consume — the shared
  // tmp is now written before the barrier and read after it.
  f.p.body = transform(f.p.body, [](const Stmt& s) -> Stmt {
    if (s->kind != StmtKind::kFor || s->var != "b_idx") return nullptr;
    Stmt loop = Fixture::node_loop();
    const Stmt& let = loop->body;
    Stmt produce_loop =
        make_for(loop->var, loop->min, loop->extent,
                 make_let(let->var, let->value, let->body->stmts[0],
                          let->dim),
                 loop->fkind, false, true, loop->dim);
    Stmt consume_loop =
        make_for(loop->var, loop->min, loop->extent,
                 make_let(let->var, let->value, let->body->stmts[1],
                          let->dim),
                 loop->fkind, false, true, loop->dim);
    return make_for(s->var, s->min, s->extent,
                    make_seq({produce_loop, make_barrier(), consume_loop}),
                    s->fkind, true, false, s->dim);
  });
  EXPECT_TRUE(codes(verify(f.p)).count("scope"));
}

TEST(IlirVerifyMutation, SharedBufferEscapingNestIsScope) {
  Fixture f;
  // Read tmp after the dependence loop: a one-iteration shared buffer
  // consumed outside the nest that produces it.
  f.p.body = make_seq(
      {f.p.body,
       make_for("i", imm(0), imm(8),
                make_store("out", {imm(0), var("i")},
                           ra::load("tmp", {imm(0), var("i")})),
                ForKind::kSerial, false, false, "d_hidden")});
  EXPECT_TRUE(codes(verify(f.p)).count("scope"))
      << support::format(verify(f.p));
}

TEST(IlirVerifyMutation, ShadowingLoopVariableIsFlagged) {
  Fixture f;
  // Wrap the tmp store in a second loop over the already-bound `i`.
  f.p.body = transform(f.p.body, [](const Stmt& s) -> Stmt {
    if (s->kind == StmtKind::kStore && s->buffer == "tmp")
      return make_for("i", imm(0), imm(8), s, ForKind::kSerial, false,
                      false, "d_hidden");
    return nullptr;
  });
  EXPECT_TRUE(codes(verify(f.p)).count("shadow"));
}

TEST(IlirVerifyMutation, ShadowingSumAxisIsFlagged) {
  Fixture f;
  // sum over an axis named like the enclosing loop variable.
  f.p.body = transform(f.p.body, [](const Stmt& s) -> Stmt {
    if (s->kind == StmtKind::kStore && s->buffer == "out")
      return make_store(s->buffer, s->indices,
                        ra::sum("n_idx", imm(4), s->value));
    return nullptr;
  });
  EXPECT_TRUE(codes(verify(f.p)).count("shadow"));
}

TEST(IlirVerifyMutation, DroppedIndexIsArity) {
  Fixture f;
  f.p.body = transform(f.p.body, [](const Stmt& s) -> Stmt {
    if (s->kind == StmtKind::kStore && s->buffer == "tmp")
      return make_store("tmp", {s->indices[0]}, s->value);
    return nullptr;
  });
  EXPECT_TRUE(codes(verify(f.p)).count("arity"));
}

TEST(IlirVerifyMutation, CrossDimensionIndexIsDim) {
  Fixture f;
  // out[node, b_idx]: indexing the hidden dimension by the batch loop —
  // §A.2's "does not make sense to index rnn by b_idx".
  f.p.body = transform(f.p.body, [](const Stmt& s) -> Stmt {
    if (s->kind == StmtKind::kStore && s->buffer == "out")
      return make_store("out", {s->indices[0], var("b_idx")}, s->value);
    return nullptr;
  });
  EXPECT_TRUE(codes(verify(f.p)).count("dim"));
}

TEST(IlirVerifyMutation, ShapelessBufferIsFlagged) {
  Fixture f;
  Buffer b;
  b.name = "ghost";
  f.p.buffers.push_back(b);
  EXPECT_TRUE(codes(verify(f.p)).count("shape"));
}

TEST(IlirVerify, MultipleViolationsAllReported) {
  Fixture f;
  // Two independent corruptions: both must be reported in one call.
  std::vector<Buffer> kept;
  for (const Buffer& b : f.p.buffers)
    if (b.name != "tmp") kept.push_back(b);
  f.p.buffers = std::move(kept);
  f.p.body = transform(f.p.body, [](const Stmt& s) -> Stmt {
    if (s->kind == StmtKind::kStore && s->buffer == "out")
      return make_store("out",
                        {s->indices[0], ra::add(var("i"), imm(1))},
                        s->value);
    return nullptr;
  });
  const auto c = codes(verify(f.p));
  EXPECT_TRUE(c.count("undeclared-buffer"));
  EXPECT_TRUE(c.count("bounds"));
  EXPECT_GE(support::error_count(verify(f.p)), 2u);
}

TEST(IlirVerify, VerifyOrThrowListsPhaseAndProgram) {
  Fixture f;
  f.p.body = transform(f.p.body, [](const Stmt& s) -> Stmt {
    if (s->kind == StmtKind::kLet && s->var == "node") return s->body;
    return nullptr;
  });
  try {
    verify_or_throw(f.p, "unit_test_phase");
    FAIL() << "expected verify_or_throw to raise";
  } catch (const std::exception& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unit_test_phase"), std::string::npos) << what;
    EXPECT_NE(what.find("verify_fixture"), std::string::npos) << what;
    EXPECT_NE(what.find("def-use"), std::string::npos) << what;
  }
}

// -- clean-pipeline sweep ------------------------------------------------------

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
    s.improved_barrier_placement = false;
    out.emplace_back("conservative_barriers", s);
  }
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

TEST(IlirVerifyPipeline, ZooTimesSchedulesVerifierClean) {
  // compile_ilir verifies after lowering and every pass; a violation
  // anywhere throws and fails the test. The final program is re-checked
  // explicitly with barrier enforcement.
  for (const models::ModelDef& def : zoo()) {
    if (!def.model) continue;
    const bool dag = def.name == "DAG-RNN";
    for (const auto& [label, schedule] : schedule_variants(dag)) {
      SCOPED_TRACE(def.name + " / " + label);
      exec::CompiledIlir c;
      ASSERT_NO_THROW(c = exec::compile_ilir(*def.model, schedule));
      VerifyOptions opt;
      opt.require_barriers = true;
      const auto diags = verify(c.optimized, opt);
      EXPECT_FALSE(support::has_errors(diags))
          << def.name << " / " << label << ":\n"
          << support::format(diags);
    }
  }
}

}  // namespace
}  // namespace cortex::ilir
