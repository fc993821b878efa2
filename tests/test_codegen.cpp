// C code generation (Fig. 2 stage 4, ilir/codegen_c.hpp): the emitted
// kernel carries the structures the paper shows — specialized leaf nest,
// variable-bound batch loops, indirect accesses, single-comparison leaf
// checks (Appendix B), barrier counters, scratchpad annotations and
// unroll pragmas — and, since the JIT loop closed, must ALSO be real C:
// every zoo x schedule program compiles clean under
// `cc -std=c11 -Wall -Wextra -Werror`, float literals round-trip
// bit-exactly, reduction accumulators are uniquely named, and nothing
// C++-only (std::max, bare #pragma unroll, unguarded omp pragmas) leaks
// into the output.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "ilir/codegen_c.hpp"
#include "ilir/passes.hpp"
#include "lowering/lower.hpp"
#include "models/model_zoo.hpp"

namespace cortex::ilir {
namespace {

std::string lowered_code(const models::ModelDef& def,
                         const ra::Schedule& sched = {}) {
  return codegen_c(lowering::lower(*def.model, sched).program);
}

TEST(Codegen, RunningExampleEmitsListing2Loops) {
  const std::string code = lowered_code(models::make_treernn_fig1(8));
  // cortex-jit-abi 2 signature, not a pseudocode sketch.
  EXPECT_NE(code.find("void TreeRNN_fig1(float* arena,"), std::string::npos);
  EXPECT_NE(code.find("for (int64_t n_idx = 0; n_idx < num_leaves"),
            std::string::npos);
  EXPECT_NE(code.find("batch_length["), std::string::npos);
  // Row-major flattened indexing against the declared shapes.
  EXPECT_NE(code.find(
                "rnn[(node * 8 + i)] = "
                "(float)((double)Emb[((int64_t)words[node] * 8 + i)]);"),
            std::string::npos);
  EXPECT_NE(code.find("cx_tanh_rational"), std::string::npos);
}

TEST(Codegen, SanitizesIllegalIdentifierCharacters) {
  const std::string code = lowered_code(models::make_mvrnn(4));
  EXPECT_NE(code.find("void MV_RNN("), std::string::npos);
  EXPECT_EQ(code.find("void MV-RNN("), std::string::npos);
}

TEST(Codegen, LeafCheckIsSingleComparison) {
  // Appendix B numbering: the conditional-operator form lowers isleaf(n)
  // to one integer comparison, not a memory load.
  ra::Schedule sched;
  sched.specialize_leaves = false;
  const std::string code =
      lowered_code(models::make_treernn_fig1(8), sched);
  EXPECT_NE(code.find("if ((node >= first_leaf_id) != 0)"),
            std::string::npos);
}

TEST(Codegen, BarriersIncrementTheCounterTable) {
  const models::ModelDef def = models::make_treernn_fig1(8);
  const lowering::LoweredModel lm =
      lowering::lower(*def.model, ra::Schedule{});
  const std::string code = codegen_c(insert_barriers(lm.program, true));
  // On a single CPU lane a device-wide barrier is a sequence point; the
  // kernel records it so run_ilir can compare counts with the
  // interpreter.
  EXPECT_NE(code.find("++cx_counters[0];"), std::string::npos);
  EXPECT_EQ(code.find("global_barrier"), std::string::npos);
}

TEST(Codegen, PeeledLoopsCarryConstantUnrollPragma) {
  const models::ModelDef def = models::make_treernn_fig1(8);
  const lowering::LoweredModel lm =
      lowering::lower(*def.model, ra::Schedule{});
  const std::string code = codegen_c(peel_variable_loop(lm.program, 4));
  // The portable spelling with a constant trip count — a bare
  // `#pragma unroll` is CUDA/clang-only and dies under gcc -Werror.
  EXPECT_NE(code.find("#pragma GCC unroll 4"), std::string::npos);
  EXPECT_EQ(code.find("#pragma unroll\n"), std::string::npos);
  EXPECT_NE(code.find("peeled: tail loop"), std::string::npos);
}

TEST(Codegen, VectorizedLoopsGuardTheOmpPragma) {
  Program p;
  p.name = "vec";
  Buffer buf;
  buf.name = "out";
  buf.shape = {ra::var("N")};
  buf.dims = {"d_node"};
  p.dim_extents.emplace_back("d_node", ra::var("N"));
  p.params = {"N"};
  p.buffers.push_back(buf);
  p.body = make_for("i", ra::imm(0), ra::var("N"),
                    make_store("out", {ra::var("i")}, ra::fimm(1.0f)),
                    ForKind::kVectorized, false, false, "d_node");
  const std::string code = codegen_c(p);
  EXPECT_NE(code.find("#if defined(_OPENMP)"), std::string::npos);
  EXPECT_NE(code.find("#pragma omp simd"), std::string::npos);
}

TEST(Codegen, SharedScopeBuffersAnnotated) {
  const models::ModelDef def = models::make_treernn_fig1(8);
  const lowering::LoweredModel lm =
      lowering::lower(*def.model, ra::Schedule{});
  const std::string code = codegen_c(dense_index_intermediates(
      lm.program, "node", "n_idx", "max_batch_size", {"rnn"}));
  EXPECT_NE(code.find("[scratchpad/shared memory]"), std::string::npos);
  EXPECT_NE(code.find("lh(max_batch_size,8)"), std::string::npos);
}

TEST(Codegen, ReductionsEmitAccumulationLoops) {
  // matvec's sum reduction becomes a hoisted double accumulator (the
  // interpreter accumulates in double; float acc would diverge).
  const std::string code = lowered_code(models::make_treernn(8));
  EXPECT_NE(code.find("double cx_acc0 = 0.0;"), std::string::npos);
  EXPECT_NE(code.find("cx_acc0 += "), std::string::npos);
}

TEST(Codegen, MultipleReductionsGetDistinctAccumulators) {
  // The old emitter redeclared one shared `float acc` per kernel —
  // invalid C the moment a node formula had two reductions.
  const std::string code = lowered_code(models::make_dagrnn(8));
  EXPECT_NE(code.find("double cx_acc0 = 0.0;"), std::string::npos);
  EXPECT_NE(code.find("double cx_acc1 = 0.0;"), std::string::npos);
}

TEST(Codegen, ChildSumEmitsCsrTraversal) {
  const std::string code = lowered_code(models::make_dagrnn(8));
  // Variable fan-in: child ids come from the CSR arrays.
  EXPECT_NE(code.find("child_ids[(int64_t)child_offsets[node] + k]"),
            std::string::npos);
  EXPECT_NE(code.find("child_offsets[node + 1]"), std::string::npos);
}

TEST(Codegen, FloatLiteralsRoundTripBitExactly) {
  Program p;
  p.name = "lit";
  Buffer buf;
  buf.name = "out";
  buf.shape = {ra::var("N")};
  buf.dims = {"d_node"};
  p.dim_extents.emplace_back("d_node", ra::var("N"));
  p.params = {"N"};
  p.buffers.push_back(buf);
  p.body = make_for("i", ra::imm(0), ra::var("N"),
                    make_store("out", {ra::var("i")},
                               ra::mul(ra::fimm(0.1f), ra::fimm(2.0f))),
                    ForKind::kSerial, false, false, "d_node");
  const std::string code = codegen_c(p);
  // The old emitter printed `0.1f` via the default 6-digit precision and
  // even emitted `1f` (invalid C) for whole numbers. Now: max_digits10
  // decimal, always with a decimal point, never an `f` suffix (the
  // arithmetic is double; the store casts).
  const std::size_t pos = code.find("0.10000000149011612");
  ASSERT_NE(pos, std::string::npos) << code;
  EXPECT_EQ(static_cast<double>(0.1f),
            std::strtod(code.c_str() + pos, nullptr));
  EXPECT_NE(code.find("2.0"), std::string::npos);
  EXPECT_EQ(code.find("0.1f"), std::string::npos);
}

TEST(Codegen, BracesBalance) {
  for (const auto& def :
       {models::make_treernn_fig1(8), models::make_treelstm(8),
        models::make_dagrnn(8), models::make_mvrnn(4)}) {
    const std::string code = lowered_code(def);
    EXPECT_EQ(std::count(code.begin(), code.end(), '{'),
              std::count(code.begin(), code.end(), '}'))
        << def.name;
  }
}

// -- the compile-clean sweep --------------------------------------------------

/// cc -fsyntax-only with the warnings-as-errors wall the JIT builds with.
void expect_compiles_clean(const std::string& code, const std::string& what) {
  char tmpl[] = "/tmp/cortex-codegen-XXXXXX.c";
  const int fd = mkstemps(tmpl, 2);
  ASSERT_GE(fd, 0);
  {
    std::ofstream out(tmpl, std::ios::trunc);
    out << code;
  }
  ::close(fd);
  const std::string cmd =
      std::string("cc -std=c11 -Wall -Wextra -Werror -fsyntax-only ") + tmpl;
  const int rc = std::system(cmd.c_str());
  std::remove(tmpl);
  EXPECT_EQ(rc, 0) << what << " does not compile as C11:\n" << code;
}

TEST(CodegenCompile, ZooTimesSchedulesCompileAsStrictC11) {
  std::vector<models::ModelDef> defs;
  defs.push_back(models::make_treefc(8));
  defs.push_back(models::make_treefc_embed(8));
  defs.push_back(models::make_dagrnn(8));
  defs.push_back(models::make_treegru(8));
  defs.push_back(models::make_treegru_embed(8));
  defs.push_back(models::make_simple_treegru(8));
  defs.push_back(models::make_treelstm(8));
  defs.push_back(models::make_treelstm_embed(8));
  defs.push_back(models::make_mvrnn(4));
  defs.push_back(models::make_treernn(8));
  defs.push_back(models::make_treernn_fig1(8));
  defs.push_back(models::make_treernn_zeroleaf(8));
  defs.push_back(models::make_seq_lstm(8));
  defs.push_back(models::make_seq_gru(8));
  std::vector<std::pair<std::string, ra::Schedule>> schedules;
  schedules.emplace_back("default", ra::Schedule{});
  schedules.emplace_back("unoptimized", ra::Schedule::unoptimized());
  schedules.emplace_back("cavs_comparable", ra::Schedule::cavs_comparable());
  {
    ra::Schedule s;
    s.loop_peeling = false;
    schedules.emplace_back("no_peeling", s);
  }
  for (const models::ModelDef& def : defs) {
    if (!def.model) continue;
    for (const auto& [label, sched] : schedules) {
      const std::string code = lowered_code(def, sched);
      // Nothing C++-only may leak into the C output.
      EXPECT_EQ(code.find("std::"), std::string::npos)
          << def.name << " / " << label;
      expect_compiles_clean(code, def.name + " / " + label);
    }
  }
}

}  // namespace
}  // namespace cortex::ilir
