// Model zoo: every cell program validates and is the one derived from
// the RA definition (cell_from_ra), op for op; its parameters match the
// declared shapes and the RA weights, the flop accounting is sane, and
// the RA definition passes the P.1-P.3 verifier. (RA-vs-cell numeric
// equivalence is in test_ilir_eval.cpp.)

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

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
    SCOPED_TRACE(def.name);
    ASSERT_TRUE(def.model.has_value());
    EXPECT_TRUE(ra::verify_properties(*def.model).ok);
    EXPECT_EQ(def.model->state_width(), def.cell.state_width);
  }
}

/// The cell with its registers renamed r0, r1, ... in definition order
/// (leaf program first), so cells that differ only in register names
/// compare equal while a register two ops share stays shared.
CellProgram canonical(CellProgram cell) {
  std::map<std::string, std::string> names;
  for (auto* ops : {&cell.leaf_ops, &cell.internal_ops})
    for (CellOp& op : *ops) {
      for (std::string& in : op.ins) in = names.at(in);
      auto it = names.find(op.out);
      if (it == names.end())
        it = names.emplace(op.out, "r" + std::to_string(names.size())).first;
      op.out = it->second;
    }
  return cell;
}

TEST(ModelZoo, DerivedCellsMatchTheHandWrittenOnesOpForOp) {
  // Digests of the canonical cells when every factory still spelled its
  // cell op by op next to its RA model. Op order, kinds, widths, child
  // slices, params, eltwise expressions and which registers the leaf and
  // internal programs share are all part of the digest, so a served cell
  // (and every modeled counter read from it) is unchanged.
  const std::map<std::string, std::uint64_t> want = {
      {"TreeFC", 0xb936b59dd574bfc2ull},
      {"TreeFC-emb", 0xa779cb80eb71726eull},
      {"DAG-RNN", 0x4928796aaf0a05bbull},
      {"TreeGRU", 0xc419b66bef392ad0ull},
      {"TreeGRU-emb", 0x7307f1df9e938eb2ull},
      {"SimpleTreeGRU", 0xcf081c3408b095e7ull},
      {"TreeLSTM", 0x070761980ad38726ull},
      {"TreeLSTM-emb", 0xbfbc5b5d8c53f901ull},
      {"MV-RNN", 0x9ba10633775e56daull},
      {"TreeRNN", 0x38c9c6e06fab16afull},
      {"TreeRNN-fig1", 0x539d6f032aa43707ull},
      {"TreeRNN-zeroleaf", 0x02e46e89d9f7f5c2ull},
      {"SeqLSTM", 0x22960a0eb2908c35ull},
      {"SeqGRU", 0x30e3bdacab15bd2aull},
  };
  const std::vector<ModelDef> defs = all_models();
  ASSERT_EQ(defs.size(), want.size());
  for (const ModelDef& def : defs) {
    SCOPED_TRACE(def.name);
    support::FingerprintBuilder fb;
    fingerprint(canonical(def.cell), fb);
    EXPECT_EQ(fb.finish().digest, want.at(def.name));
  }
}

TEST(ModelZoo, ParamShapesMatchRaWeights) {
  for (const ModelDef& def : all_models()) {
    SCOPED_TRACE(def.name);
    ASSERT_TRUE(def.model.has_value());
    std::set<std::pair<std::string, std::vector<std::int64_t>>> declared(
        def.param_shapes.begin(), def.param_shapes.end());
    EXPECT_EQ(declared.size(), def.param_shapes.size()) << "duplicate name";
    std::set<std::pair<std::string, std::vector<std::int64_t>>> weights;
    for (const ra::OpRef& w : def.model->weight_ops())
      weights.emplace(w->name, w->input_shape);
    EXPECT_EQ(declared, weights);
  }
}

TEST(CellFromRa, RejectsOpaqueComputeAndNamesIt) {
  // out = 2 * lh through a generic loop nest: it lowers, but no cell op
  // computes it.
  const std::int64_t h = 4;
  ra::OpRef ph = ra::placeholder("rnn", {h});
  ra::OpRef lh = ra::child_read("lh", ph, 0, h);
  ra::OpRef twice = ra::compute(
      "mystery_op", {"n", "i"}, {ra::var("N"), ra::imm(h)},
      ra::mul(ra::fimm(2.0),
              ra::load("lh", {ra::var("n"), ra::var("i")})),
      {lh});
  ra::OpRef body = ra::if_then_else("body", ra::is_leaf(ra::var("n")),
                                    ra::const_init("leafc", 0.0, h), twice);
  const ra::Model model =
      ra::make_model("Opaque", ra::recursion_op(ph, body),
                     linearizer::StructureKind::kTree, 2);
  try {
    cell_from_ra(model);
    FAIL() << "an opaque compute op was translated";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("mystery_op"), std::string::npos)
        << e.what();
  }
}

TEST(CellFromRa, EmitsOpsInCreationOrderNotTopoOrder) {
  // Two independent gates, the second created first: the cell follows
  // the constructor calls, whatever order a DFS would visit them in.
  const std::int64_t h = 4;
  ra::OpRef ph = ra::placeholder("rnn", {h});
  ra::OpRef rh = ra::child_read("rh", ph, 1, h);
  ra::OpRef lh = ra::child_read("lh", ph, 0, h);
  ra::OpRef sum = ra::eltwise(
      "h",
      ra::add(ra::load("lh", {ra::var("n"), ra::var("i")}),
              ra::load("rh", {ra::var("n"), ra::var("i")})),
      {lh, rh}, h);
  ra::OpRef body = ra::if_then_else("body", ra::is_leaf(ra::var("n")),
                                    ra::const_init("leafc", 0.0, h), sum);
  const CellProgram cell = cell_from_ra(ra::make_model(
      "Order", ra::recursion_op(ph, body), linearizer::StructureKind::kTree,
      2));
  ASSERT_EQ(cell.internal_ops.size(), 3u);
  EXPECT_EQ(cell.internal_ops[0].out, "rh");
  EXPECT_EQ(cell.internal_ops[0].child, 1);
  EXPECT_EQ(cell.internal_ops[1].out, "lh");
  EXPECT_EQ(cell.internal_ops[2].ins, (std::vector<std::string>{"lh", "rh"}));
  ASSERT_EQ(cell.leaf_ops.size(), 1u);
  EXPECT_EQ(cell.leaf_ops[0].out, "h");  // the shared state register
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
  // A concat of a register nothing wrote.
  CellOp b;
  b.kind = CellOpKind::kLeafConst;
  b.out = "b";
  b.width = 2;
  CellOp cat;
  cat.kind = CellOpKind::kConcat2;
  cat.out = "st";
  cat.width = 4;
  cat.ins = {"ghost", "b"};
  cell.internal_ops = {b, cat};
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

/// An op of width `width` reading `ins` (eltwise: expression `expr`).
CellOp make_op(CellOpKind kind, const std::string& out, std::int64_t width,
               std::vector<std::string> ins = {}, ra::Expr expr = nullptr) {
  CellOp op;
  op.kind = kind;
  op.out = out;
  op.width = width;
  op.ins = std::move(ins);
  op.expr = std::move(expr);
  return op;
}

/// validate() and both executors refuse the cell whose internal program
/// is `ops` over a `state_width`-wide state: each op must read only
/// elements that exist.
void expect_rejected(std::int64_t state_width, std::vector<CellOp> ops) {
  CellProgram cell;
  cell.state_width = state_width;
  cell.internal_ops = std::move(ops);
  const ModelParams params;
  EXPECT_THROW(cell.validate(), Error);
  EXPECT_THROW(CellExecutor(cell, params), Error);
  EXPECT_THROW(BatchedCellExecutor(cell, params), Error);
}

TEST(CellProgram, ValidateRejectsEltwiseInputIndexOutsideItsInputs) {
  const CellOp b = make_op(CellOpKind::kSliceChild, "b", 4);
  // e1 of a one-input op, and a negative index.
  expect_rejected(4, {b, make_op(CellOpKind::kEltwise, "st", 4, {"b"},
                                 ra::add(ra::var("e0"), ra::var("e1")))});
  expect_rejected(4, {b, make_op(CellOpKind::kEltwise, "st", 4, {"b"},
                                 ra::var("e-1"))});
}

TEST(CellProgram, ValidateRejectsMalformedEltwiseVar) {
  expect_rejected(4, {make_op(CellOpKind::kSliceChild, "b", 4),
                      make_op(CellOpKind::kEltwise, "st", 4, {"b"},
                              ra::var("ex"))});
}

TEST(CellProgram, ValidateRejectsMoreThanEightEltwiseInputs) {
  const std::vector<std::string> nine(9, "b");
  expect_rejected(4, {make_op(CellOpKind::kSliceChild, "b", 4),
                      make_op(CellOpKind::kEltwise, "st", 4, nine,
                              ra::var("e0"))});
}

TEST(CellProgram, ValidateRejectsEltwiseInputNarrowerThanOutput) {
  expect_rejected(4, {make_op(CellOpKind::kSliceChild, "b", 2),
                      make_op(CellOpKind::kEltwise, "st", 4, {"b"},
                              ra::call(ra::CallFn::kTanh, ra::var("e0")))});
}

TEST(CellProgram, ValidateRejectsChildReadsOutsideTheState) {
  CellOp slice = make_op(CellOpKind::kSliceChild, "st", 4);
  slice.offset = 2;  // columns [2, 6) of a 4-wide state
  expect_rejected(4, {slice});
  CellOp sum = make_op(CellOpKind::kChildSum, "st", 4);
  sum.offset = 1;
  expect_rejected(4, {sum});
}

TEST(CellProgram, ValidateRejectsConcatInputsThatDoNotFit) {
  // The first input wider than the output.
  expect_rejected(4, {make_op(CellOpKind::kLeafConst, "a", 6),
                      make_op(CellOpKind::kLeafConst, "b", 2),
                      make_op(CellOpKind::kConcat2, "st", 4, {"a", "b"})});
  // The second input narrower than the 2 columns left after the first.
  expect_rejected(4, {make_op(CellOpKind::kLeafConst, "a", 2),
                      make_op(CellOpKind::kLeafConst, "b", 1),
                      make_op(CellOpKind::kConcat2, "st", 4, {"a", "b"})});
}

TEST(CellProgram, ValidateRejectsMatrixOperandsNarrowerThanTheyRead) {
  // kNodeMatVec of width 2 reads a 2 x 2 matrix from its first input.
  expect_rejected(2, {make_op(CellOpKind::kLeafConst, "m", 3),
                      make_op(CellOpKind::kLeafConst, "x", 2),
                      make_op(CellOpKind::kNodeMatVec, "st", 2, {"m", "x"})});
  // kMatStack2 of width 4 (H = 2) reads 4 floats from each input.
  expect_rejected(4, {make_op(CellOpKind::kLeafConst, "m0", 4),
                      make_op(CellOpKind::kLeafConst, "m1", 3),
                      make_op(CellOpKind::kMatStack2, "st", 4, {"m0", "m1"})});
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
  ASSERT_EQ(ce.param_names(), std::vector<std::string>{"b"});
  const float in0[2] = {0.0f, 1.0f};
  const float bias[2] = {0.5f, -1.0f};
  const float* ins[1] = {in0};
  const float* params[1] = {bias};
  EXPECT_NEAR(ce.eval(0, ins, params), kernels::tanh_rational(0.5f), 1e-6f);
  EXPECT_NEAR(ce.eval(1, ins, params), kernels::tanh_rational(0.0f), 1e-6f);
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
