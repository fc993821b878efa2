// Model zoo: every cell program validates, its parameters match the
// declared shapes, the flop accounting is sane, and the RA definition
// passes the P.1-P.3 verifier. (RA-vs-cell numeric equivalence is in
// test_ilir_eval.cpp.)

#include <gtest/gtest.h>

#include "models/model_zoo.hpp"
#include "ra/verify.hpp"
#include "tensor/activations.hpp"

namespace cortex::models {
namespace {

std::vector<ModelDef> all_models() {
  std::vector<ModelDef> defs;
  defs.push_back(make_treefc(16));
  defs.push_back(make_treefc_embed(16));
  defs.push_back(make_dagrnn(16));
  defs.push_back(make_treegru(16));
  defs.push_back(make_treegru_embed(16));
  defs.push_back(make_simple_treegru(16));
  defs.push_back(make_treelstm(16));
  defs.push_back(make_treelstm_embed(16));
  defs.push_back(make_mvrnn(8));
  defs.push_back(make_treernn(16));
  defs.push_back(make_treernn_fig1(16));
  defs.push_back(make_treernn_zeroleaf(16));
  defs.push_back(make_seq_lstm(16));
  defs.push_back(make_seq_gru(16));
  return defs;
}

TEST(ModelZoo, AllCellsValidate) {
  for (const ModelDef& def : all_models()) {
    SCOPED_TRACE(def.name);
    EXPECT_NO_THROW(def.cell.validate());
    EXPECT_GT(def.cell.state_width, 0);
    EXPECT_GT(def.cell.internal_flops(), 0);
  }
}

TEST(ModelZoo, RaDefinitionsPassPropertyVerifier) {
  for (const ModelDef& def : all_models()) {
    if (!def.model) continue;  // sequential cells are cell-only
    SCOPED_TRACE(def.name);
    EXPECT_TRUE(ra::verify_properties(*def.model).ok);
    EXPECT_EQ(def.model->state_width(), def.cell.state_width);
  }
}

TEST(ModelZoo, ParamsCoverEveryCellReference) {
  for (const ModelDef& def : all_models()) {
    SCOPED_TRACE(def.name);
    std::set<std::string> declared;
    for (const auto& [name, shape] : def.param_shapes)
      declared.insert(name);
    for (const auto* ops : {&def.cell.leaf_ops, &def.cell.internal_ops})
      for (const CellOp& op : *ops)
        for (const std::string& p : cell_op_params(op))
          EXPECT_TRUE(declared.count(p) > 0)
              << def.name << " op " << op.out << " references undeclared "
              << p;
  }
}

TEST(ModelZoo, InitParamsMatchesDeclaredShapes) {
  Rng rng(3);
  for (const ModelDef& def : all_models()) {
    SCOPED_TRACE(def.name);
    const ModelParams params = init_params(def, rng);
    EXPECT_EQ(params.tensors.size(), def.param_shapes.size());
    for (const auto& [name, shape] : def.param_shapes) {
      const Tensor& t = params.at(name);
      EXPECT_EQ(t.shape().dims(), shape) << name;
    }
    EXPECT_GT(params.total_bytes(), 0);
  }
}

TEST(ModelZoo, StateWidthsMatchPaper) {
  EXPECT_EQ(make_treefc(256).cell.state_width, 256);
  EXPECT_EQ(make_treelstm(256).cell.state_width, 512);   // [h; c]
  EXPECT_EQ(make_mvrnn(64).cell.state_width, 64 + 64 * 64);  // [p; P]
  EXPECT_EQ(make_seq_lstm(256).cell.state_width, 512);
  EXPECT_EQ(make_seq_gru(256).cell.state_width, 256);
}

TEST(ModelZoo, SyncPointStructure) {
  // GRU cells need two device-wide phases per step (h' reads r); LSTM
  // gates read only children, so one phase suffices.
  EXPECT_EQ(make_treegru(16).sync_points_per_step, 2);
  EXPECT_EQ(make_simple_treegru(16).sync_points_per_step, 2);
  EXPECT_EQ(make_treelstm(16).sync_points_per_step, 1);
  EXPECT_EQ(make_seq_gru(16).sync_points_per_step, 2);
  // The refactoring cost term exists exactly for TreeGRU (the z*hsum
  // term crossing the moved backedge), not SimpleTreeGRU (Fig. 10c).
  EXPECT_GT(make_treegru(16).refactor_extra_bytes_per_node, 0);
  EXPECT_EQ(make_simple_treegru(16).refactor_extra_bytes_per_node, 0);
}

TEST(ModelZoo, TreeRnnUsesBlockLocalSchedule) {
  EXPECT_TRUE(make_treernn(16).block_local_schedule);
  EXPECT_TRUE(make_treernn_fig1(16).block_local_schedule);
  EXPECT_FALSE(make_treelstm(16).block_local_schedule);
}

TEST(ModelZoo, Table2ModelsAtBothHiddenSizes) {
  const auto hs = table2_models(true);
  const auto hl = table2_models(false);
  ASSERT_EQ(hs.size(), 5u);
  ASSERT_EQ(hl.size(), 5u);
  EXPECT_EQ(hs[0].name, "TreeFC");
  EXPECT_EQ(hs[1].name, "DAG-RNN");
  EXPECT_EQ(hs[4].name, "MV-RNN");
  EXPECT_EQ(hs[0].hidden, 256);
  EXPECT_EQ(hl[0].hidden, 512);
  EXPECT_EQ(hs[4].hidden, 64);
  EXPECT_EQ(hl[4].hidden, 128);
}

TEST(ModelZoo, FlopAccountingScalesWithHidden) {
  const auto f16 = make_treelstm(16).cell.internal_flops();
  const auto f32 = make_treelstm(32).cell.internal_flops();
  // Dominated by H x H matvecs: ~4x per doubling.
  EXPECT_GT(f32, 3 * f16);
  EXPECT_LT(f32, 5 * f16);
}

TEST(CellProgram, RegisterWidthConflictsRejected) {
  CellProgram cell;
  cell.state_width = 4;
  CellOp a;
  a.kind = CellOpKind::kLeafConst;
  a.out = "x";
  a.width = 4;
  CellOp b = a;
  b.width = 8;
  cell.internal_ops = {a, b};
  EXPECT_THROW(cell.register_widths(), Error);
}

TEST(CellProgram, ValidateRejectsUndefinedRegisterReads) {
  CellProgram cell;
  cell.state_width = 4;
  CellOp op;
  op.kind = CellOpKind::kEltwise;
  op.out = "y";
  op.width = 4;
  op.ins = {"ghost"};
  op.expr = ra::var("e0");
  cell.internal_ops = {op};
  EXPECT_THROW(cell.validate(), Error);
}

TEST(CellProgram, ValidateRejectsUseBeforeDefinition) {
  // Every register name is defined somewhere in the cell, but not before
  // its use in the same program. Both executors must refuse the cell at
  // construction: the per-node one would otherwise read the previous
  // node's stale register.
  CellOp leaf_a;
  leaf_a.kind = CellOpKind::kLeafConst;
  leaf_a.out = "a";
  leaf_a.width = 4;
  leaf_a.constant = 1.0;
  CellOp leaf_st;
  leaf_st.kind = CellOpKind::kEltwise;
  leaf_st.out = "st";
  leaf_st.width = 4;
  leaf_st.ins = {"a"};
  leaf_st.expr = ra::var("e0");
  CellOp slice;
  slice.kind = CellOpKind::kSliceChild;
  slice.out = "b";
  slice.width = 4;
  CellOp sum;  // st = a + b
  sum.kind = CellOpKind::kEltwise;
  sum.out = "st";
  sum.width = 4;
  sum.ins = {"a", "b"};
  sum.expr = ra::add(ra::var("e0"), ra::var("e1"));
  CellOp late_a = leaf_a;
  late_a.constant = 2.0;

  CellProgram leaf_only;  // internal "a" is written only by the leaf program
  leaf_only.state_width = 4;
  leaf_only.leaf_ops = {leaf_a, leaf_st};
  leaf_only.internal_ops = {slice, sum};
  CellProgram later;  // internal "a" is written only after its use
  later.state_width = 4;
  later.leaf_ops = {leaf_a, leaf_st};
  later.internal_ops = {slice, sum, late_a, sum};

  const ModelParams params;
  for (const CellProgram* cell : {&leaf_only, &later}) {
    EXPECT_THROW(cell->validate(), Error);
    EXPECT_THROW(CellExecutor(*cell, params), Error);
    EXPECT_THROW(BatchedCellExecutor(*cell, params), Error);
  }
  CellProgram fixed = leaf_only;
  fixed.internal_ops = {slice, leaf_a, sum};
  EXPECT_NO_THROW(fixed.validate());
}

TEST(CellProgram, ConcatOfUndefinedRegisterThrows) {
  // run_cell_node skips validate(); a concat of a register nothing wrote
  // must fail the lookup, not read an empty register it just inserted.
  CellOp b;
  b.kind = CellOpKind::kLeafConst;
  b.out = "b";
  b.width = 2;
  CellOp cat;
  cat.kind = CellOpKind::kConcat2;
  cat.out = "st";
  cat.width = 4;
  cat.ins = {"ghost", "b"};
  std::map<std::string, std::vector<float>> regs;
  std::vector<float> out(4);
  EXPECT_THROW(run_cell_node({b, cat}, ModelParams{}, {}, 0, regs, out.data(),
                             4),
               Error);
  EXPECT_EQ(regs.count("ghost"), 0u);
}

TEST(CellProgram, ValidateRejectsWrongFinalWidth) {
  CellProgram cell;
  cell.state_width = 8;
  CellOp op;
  op.kind = CellOpKind::kLeafConst;
  op.out = "y";
  op.width = 4;  // != state width
  cell.internal_ops = {op};
  EXPECT_THROW(cell.validate(), Error);
}

TEST(CompiledEltwise, EvaluatesPostfixProgram) {
  // tanh(e0 + b[i]) at i with inputs/params supplied by pointer.
  const ra::Expr expr = ra::call(
      ra::CallFn::kTanh, ra::add(ra::var("e0"),
                                 ra::load("b", {ra::var("i")})));
  CompiledEltwise ce(expr);
  EXPECT_EQ(ce.arith_ops(), 2);
  const float in0[2] = {0.0f, 1.0f};
  const float bias[2] = {0.5f, -1.0f};
  std::map<std::string, const float*> params{{"b", bias}};
  EXPECT_NEAR(ce.eval(0, {in0}, params), kernels::tanh_rational(0.5f),
              1e-6f);
  EXPECT_NEAR(ce.eval(1, {in0}, params), kernels::tanh_rational(0.0f),
              1e-6f);
}

TEST(CompiledEltwise, RejectsUnsupportedShapes) {
  // Loads must be 1-D params indexed by i.
  const ra::Expr bad =
      ra::load("W", {ra::var("i"), ra::var("j")});
  EXPECT_THROW(CompiledEltwise{bad}, Error);
  // Inputs must be e<k> variables.
  EXPECT_THROW(CompiledEltwise{ra::var("q")}, Error);
}

}  // namespace
}  // namespace cortex::models
