#include "models/model_zoo.hpp"

#include <algorithm>
#include <cmath>

#include "ra/op.hpp"

namespace cortex::models {

namespace {

using ra::Expr;
using ra::OpRef;

// -- RA expression shorthands -------------------------------------------------

Expr vn() { return ra::var("n"); }
Expr vi() { return ra::var("i"); }
/// Per-node load op[n, i].
Expr at(const OpRef& op) { return ra::load(op->name, {vn(), vi()}); }
/// 1-D parameter load p[i].
Expr p1(const std::string& p) { return ra::load(p, {vi()}); }

/// Concatenation body over the element axis: first `wa` elements from `a`,
/// the rest from `b` (the RA spelling of a concat operator). The first
/// arm's index is clamped with min(i, wa-1): the select only evaluates
/// the taken arm, so this is a semantic no-op, but it keeps the (guarded)
/// load statically in-bounds for the named-dimension checker — composite
/// index expressions are the class §5.1 exempts from direct-var checks.
Expr concat_body(const OpRef& a, std::int64_t wa, const OpRef& b) {
  Expr clamped = ra::binary(ra::BinOp::kMin, vi(), ra::imm(wa - 1));
  return ra::select(ra::lt(vi(), ra::imm(wa)),
                    ra::load(a->name, {vn(), std::move(clamped)}),
                    ra::load(b->name, {vn(), ra::sub(vi(), ra::imm(wa))}));
}

// -- cell-op shorthands -------------------------------------------------------

/// Eltwise inputs are referenced as e0, e1, ... in cell expressions.
Expr e0() { return ra::var("e0"); }
Expr e1() { return ra::var("e1"); }
Expr e2() { return ra::var("e2"); }
/// 1-D param load in a cell eltwise expression: p[i].
Expr cp(const std::string& p) { return ra::load(p, {ra::var("i")}); }

CellOp elt(std::string out, std::int64_t width, std::vector<std::string> ins,
           Expr expr) {
  CellOp op;
  op.kind = CellOpKind::kEltwise;
  op.out = std::move(out);
  op.width = width;
  op.ins = std::move(ins);
  op.expr = std::move(expr);
  return op;
}

CellOp slice(std::string out, int child, std::int64_t offset,
             std::int64_t width) {
  CellOp op;
  op.kind = CellOpKind::kSliceChild;
  op.out = std::move(out);
  op.child = child;
  op.offset = offset;
  op.width = width;
  return op;
}

CellOp csum(std::string out, std::int64_t width, std::int64_t offset = 0) {
  CellOp op;
  op.kind = CellOpKind::kChildSum;
  op.out = std::move(out);
  op.offset = offset;
  op.width = width;
  return op;
}

CellOp mv(std::string out, std::string param, std::string in,
          std::int64_t width) {
  CellOp op;
  op.kind = CellOpKind::kMatVec;
  op.out = std::move(out);
  op.param = std::move(param);
  op.ins = {std::move(in)};
  op.width = width;
  return op;
}

CellOp emb(std::string out, std::string table, std::int64_t width) {
  CellOp op;
  op.kind = CellOpKind::kLeafEmbed;
  op.out = std::move(out);
  op.param = std::move(table);
  op.width = width;
  return op;
}

CellOp cst(std::string out, double value, std::int64_t width) {
  CellOp op;
  op.kind = CellOpKind::kLeafConst;
  op.out = std::move(out);
  op.constant = value;
  op.width = width;
  return op;
}

CellOp cat2(std::string out, std::string a, std::string b,
            std::int64_t width) {
  CellOp op;
  op.kind = CellOpKind::kConcat2;
  op.out = std::move(out);
  op.ins = {std::move(a), std::move(b)};
  op.width = width;
  return op;
}

CellOp node_mv(std::string out, std::string mat_reg, std::string vec_reg,
               std::int64_t width) {
  CellOp op;
  op.kind = CellOpKind::kNodeMatVec;
  op.out = std::move(out);
  op.ins = {std::move(mat_reg), std::move(vec_reg)};
  op.width = width;
  return op;
}

CellOp mat_stack2(std::string out, std::string param, std::string m0,
                  std::string m1, std::int64_t width) {
  CellOp op;
  op.kind = CellOpKind::kMatStack2;
  op.out = std::move(out);
  op.param = std::move(param);
  op.ins = {std::move(m0), std::move(m1)};
  op.width = width;
  return op;
}

/// Builds the shared GRU internal program (TreeGRU / SimpleTreeGRU / the
/// RA variants all share the gate structure; only the h combination
/// differs). `simple` selects h = (1-z)*h' over h = z*hsum + (1-z)*h'.
std::vector<CellOp> gru_internal_ops(std::int64_t h, bool simple) {
  using ra::add;
  using ra::call;
  using ra::mul;
  using ra::sub;
  std::vector<CellOp> ops;
  ops.push_back(csum("hs", h));
  ops.push_back(mv("zb", "Uz", "hs", h));
  ops.push_back(elt("z", h, {"zb"},
                    call(ra::CallFn::kSigmoid, add(e0(), cp("bz")))));
  ops.push_back(mv("rb", "Ur", "hs", h));
  ops.push_back(elt("r", h, {"rb"},
                    call(ra::CallFn::kSigmoid, add(e0(), cp("br")))));
  ops.push_back(elt("rh", h, {"r", "hs"}, mul(e0(), e1())));
  ops.push_back(mv("hb", "Uh", "rh", h));
  ops.push_back(
      elt("hc", h, {"hb"}, call(ra::CallFn::kTanh, add(e0(), cp("bh")))));
  if (simple) {
    // SimpleTreeGRU (§7.4 footnote 4): h = (1 - z) * h'.
    ops.push_back(elt("h", h, {"z", "hc"},
                      mul(sub(ra::fimm(1.0), e0()), e1())));
  } else {
    // h = z * hsum + (1 - z) * h'.
    ops.push_back(elt("h", h, {"z", "hs", "hc"},
                      add(mul(e0(), e1()),
                          mul(sub(ra::fimm(1.0), e0()), e2()))));
  }
  return ops;
}

/// The RA twin of gru_internal_ops; returns the final per-node operator.
OpRef gru_internal_ra(const OpRef& ph, std::int64_t h, bool simple) {
  using ra::add;
  using ra::call;
  using ra::mul;
  using ra::sub;
  OpRef uz = ra::input_tensor("Uz", {h, h});
  OpRef ur = ra::input_tensor("Ur", {h, h});
  OpRef uh = ra::input_tensor("Uh", {h, h});
  OpRef bz = ra::input_tensor("bz", {h});
  OpRef br = ra::input_tensor("br", {h});
  OpRef bh = ra::input_tensor("bh", {h});
  OpRef hs = ra::child_sum("hs", ph, h);
  OpRef zb = ra::matvec("zb", uz, hs);
  OpRef z = ra::eltwise("z", call(ra::CallFn::kSigmoid, add(at(zb), p1("bz"))),
                        {zb, bz}, h);
  OpRef rb = ra::matvec("rb", ur, hs);
  OpRef r = ra::eltwise("r", call(ra::CallFn::kSigmoid, add(at(rb), p1("br"))),
                        {rb, br}, h);
  OpRef rh = ra::eltwise("rh", mul(at(r), at(hs)), {r, hs}, h);
  OpRef hb = ra::matvec("hb", uh, rh);
  OpRef hc = ra::eltwise("hc", call(ra::CallFn::kTanh, add(at(hb), p1("bh"))),
                         {hb, bh}, h);
  if (simple)
    return ra::eltwise("h", mul(sub(ra::fimm(1.0), at(z)), at(hc)), {z, hc},
                       h);
  return ra::eltwise(
      "h", add(mul(at(z), at(hs)), mul(sub(ra::fimm(1.0), at(z)), at(hc))),
      {z, hs, hc}, h);
}

std::vector<std::pair<std::string, std::vector<std::int64_t>>> gru_params(
    std::int64_t h) {
  return {{"Uz", {h, h}}, {"Ur", {h, h}}, {"Uh", {h, h}},
          {"bz", {h}},    {"br", {h}},    {"bh", {h}}};
}

ModelDef make_treegru_impl(std::int64_t h, std::int64_t vocab, bool simple,
                           bool embed_leaves) {
  ModelDef def;
  def.name = embed_leaves ? (simple ? "SimpleTreeGRU-emb" : "TreeGRU-emb")
                          : (simple ? "SimpleTreeGRU" : "TreeGRU");
  def.hidden = h;
  def.vocab = vocab;
  def.param_shapes = gru_params(h);
  if (embed_leaves) def.param_shapes.push_back({"Emb", {vocab, h}});

  def.cell.state_width = h;
  def.cell.num_children = 2;
  def.cell.internal_ops = gru_internal_ops(h, simple);
  def.cell.leaf_ops = embed_leaves
                          ? std::vector<CellOp>{emb("h", "Emb", h)}
                          : std::vector<CellOp>{cst("h", 0.0, h)};

  OpRef ph = ra::placeholder("gru", {h});
  OpRef internal = gru_internal_ra(ph, h, simple);
  OpRef leaf;
  if (embed_leaves) {
    OpRef table = ra::input_tensor("Emb", {vocab, h});
    leaf = ra::embed_lookup("leafe", table, h);
  } else {
    leaf = ra::const_init("leafc", 0.0, h);
  }
  OpRef body = ra::if_then_else("body", ra::is_leaf(vn()), leaf, internal);
  def.model = ra::make_model(def.name, ra::recursion_op(ph, body),
                             linearizer::StructureKind::kTree, 2);

  // The h' gate depends on r (phase 2 reads phase-1 output), so a fused
  // persistent kernel needs two device-wide sync points per batch step
  // (the GRNN GRU structure). Refactoring removes one sync but must
  // rematerialize the z*hsum term across the moved backedge — except in
  // the simple variant, whose h-gate drops that term (Fig. 10c).
  def.sync_points_per_step = 2;
  def.refactor_extra_bytes_per_node =
      simple ? 0 : 2 * h * static_cast<std::int64_t>(sizeof(float));
  return def;
}

ModelDef make_treelstm_impl(std::int64_t h, std::int64_t vocab,
                            bool embed_leaves) {
  using ra::add;
  using ra::call;
  using ra::mul;
  ModelDef def;
  def.name = embed_leaves ? "TreeLSTM-emb" : "TreeLSTM";
  def.hidden = h;
  def.vocab = vocab;
  def.param_shapes = {{"Ui", {h, h}}, {"Uo", {h, h}}, {"Uu", {h, h}},
                      {"Uf", {h, h}}, {"bi", {h}},    {"bo", {h}},
                      {"bu", {h}},    {"bf", {h}}};
  if (embed_leaves) {
    def.param_shapes.push_back({"Emb", {vocab, h}});
    def.param_shapes.push_back({"EmbC", {vocab, h}});
  }

  // State layout: [h (H) ; c (H)].
  def.cell.state_width = 2 * h;
  def.cell.num_children = 2;
  auto& ops = def.cell.internal_ops;
  ops.push_back(csum("hs", h));                 // sum of children h
  ops.push_back(slice("hl", 0, 0, h));          // left child h
  ops.push_back(slice("hr", 1, 0, h));          // right child h
  ops.push_back(slice("cl", 0, h, h));          // left child c
  ops.push_back(slice("cr", 1, h, h));          // right child c
  ops.push_back(mv("ib", "Ui", "hs", h));
  ops.push_back(elt("ig", h, {"ib"},
                    call(ra::CallFn::kSigmoid, add(e0(), cp("bi")))));
  ops.push_back(mv("ob", "Uo", "hs", h));
  ops.push_back(elt("og", h, {"ob"},
                    call(ra::CallFn::kSigmoid, add(e0(), cp("bo")))));
  ops.push_back(mv("ub", "Uu", "hs", h));
  ops.push_back(
      elt("ug", h, {"ub"}, call(ra::CallFn::kTanh, add(e0(), cp("bu")))));
  ops.push_back(mv("flb", "Uf", "hl", h));
  ops.push_back(elt("fl", h, {"flb"},
                    call(ra::CallFn::kSigmoid, add(e0(), cp("bf")))));
  ops.push_back(mv("frb", "Uf", "hr", h));
  ops.push_back(elt("fr", h, {"frb"},
                    call(ra::CallFn::kSigmoid, add(e0(), cp("bf")))));
  // c = i*u + fl*cl + fr*cr
  ops.push_back(elt("c", h, {"ig", "ug", "fl", "cl", "fr", "cr"},
                    add(mul(e0(), e1()),
                        add(mul(e2(), ra::var("e3")),
                            mul(ra::var("e4"), ra::var("e5"))))));
  // hh = o * tanh(c)
  ops.push_back(elt("hh", h, {"og", "c"},
                    mul(e0(), call(ra::CallFn::kTanh, e1()))));
  ops.push_back(cat2("st", "hh", "c", 2 * h));

  if (embed_leaves) {
    def.cell.leaf_ops = {emb("eh", "Emb", h), emb("ec", "EmbC", h),
                         cat2("st", "eh", "ec", 2 * h)};
  } else {
    def.cell.leaf_ops = {cst("st", 0.0, 2 * h)};
  }

  // RA twin.
  OpRef ph = ra::placeholder("lstm", {2 * h});
  OpRef ui = ra::input_tensor("Ui", {h, h});
  OpRef uo = ra::input_tensor("Uo", {h, h});
  OpRef uu = ra::input_tensor("Uu", {h, h});
  OpRef uf = ra::input_tensor("Uf", {h, h});
  OpRef bi = ra::input_tensor("bi", {h});
  OpRef bo = ra::input_tensor("bo", {h});
  OpRef bu = ra::input_tensor("bu", {h});
  OpRef bf = ra::input_tensor("bf", {h});
  OpRef hs = ra::child_sum("hs", ph, h);
  OpRef hl = ra::child_read_slice("hl", ph, 0, 0, h);
  OpRef hr = ra::child_read_slice("hr", ph, 1, 0, h);
  OpRef cl = ra::child_read_slice("cl", ph, 0, h, h);
  OpRef cr = ra::child_read_slice("cr", ph, 1, h, h);
  OpRef ib = ra::matvec("ib", ui, hs);
  OpRef ig = ra::eltwise(
      "ig", call(ra::CallFn::kSigmoid, add(at(ib), p1("bi"))), {ib, bi}, h);
  OpRef ob = ra::matvec("ob", uo, hs);
  OpRef og = ra::eltwise(
      "og", call(ra::CallFn::kSigmoid, add(at(ob), p1("bo"))), {ob, bo}, h);
  OpRef ub = ra::matvec("ub", uu, hs);
  OpRef ug = ra::eltwise("ug", call(ra::CallFn::kTanh, add(at(ub), p1("bu"))),
                         {ub, bu}, h);
  OpRef flb = ra::matvec("flb", uf, hl);
  OpRef fl = ra::eltwise(
      "fl", call(ra::CallFn::kSigmoid, add(at(flb), p1("bf"))), {flb, bf}, h);
  OpRef frb = ra::matvec("frb", uf, hr);
  OpRef fr = ra::eltwise(
      "fr", call(ra::CallFn::kSigmoid, add(at(frb), p1("bf"))), {frb, bf}, h);
  OpRef c = ra::eltwise(
      "c",
      add(mul(at(ig), at(ug)), add(mul(at(fl), at(cl)), mul(at(fr), at(cr)))),
      {ig, ug, fl, cl, fr, cr}, h);
  OpRef hh = ra::eltwise("hh", mul(at(og), call(ra::CallFn::kTanh, at(c))),
                         {og, c}, h);
  OpRef st = ra::eltwise("st", concat_body(hh, h, c), {hh, c}, 2 * h);

  OpRef leaf;
  if (embed_leaves) {
    OpRef te = ra::input_tensor("Emb", {vocab, h});
    OpRef tc = ra::input_tensor("EmbC", {vocab, h});
    OpRef eh = ra::embed_lookup("eh", te, h);
    OpRef ec = ra::embed_lookup("ec", tc, h);
    leaf = ra::eltwise("lst", concat_body(eh, h, ec), {eh, ec}, 2 * h);
  } else {
    leaf = ra::const_init("lst", 0.0, 2 * h);
  }
  OpRef body = ra::if_then_else("body", ra::is_leaf(vn()), leaf, st);
  def.model = ra::make_model(def.name, ra::recursion_op(ph, body),
                             linearizer::StructureKind::kTree, 2);
  def.sync_points_per_step = 1;  // all gates read only children states
  return def;
}

ModelDef make_treefc_impl(std::int64_t h, std::int64_t vocab,
                          bool embed_leaves) {
  using ra::add;
  using ra::call;
  ModelDef def;
  def.name = embed_leaves ? "TreeFC-emb" : "TreeFC";
  def.hidden = h;
  def.vocab = vocab;
  def.param_shapes = {{"W", {h, 2 * h}}, {"b", {h}}};
  if (embed_leaves) def.param_shapes.push_back({"Emb", {vocab, h}});

  def.cell.state_width = h;
  def.cell.num_children = 2;
  def.cell.internal_ops = {
      slice("lh", 0, 0, h),
      slice("rh", 1, 0, h),
      cat2("cc", "lh", "rh", 2 * h),
      mv("mvo", "W", "cc", h),
      elt("h", h, {"mvo"}, call(ra::CallFn::kRelu, add(e0(), cp("b")))),
  };
  def.cell.leaf_ops = embed_leaves
                          ? std::vector<CellOp>{emb("h", "Emb", h)}
                          : std::vector<CellOp>{cst("h", 0.1, h)};

  OpRef ph = ra::placeholder("fc", {h});
  OpRef w = ra::input_tensor("W", {h, 2 * h});
  OpRef b = ra::input_tensor("b", {h});
  OpRef lh = ra::child_read("lh", ph, 0, h);
  OpRef rh = ra::child_read("rh", ph, 1, h);
  OpRef cc = ra::eltwise("cc", concat_body(lh, h, rh), {lh, rh}, 2 * h);
  OpRef mvo = ra::matvec("mvo", w, cc);
  OpRef hh = ra::eltwise(
      "h", call(ra::CallFn::kRelu, add(at(mvo), p1("b"))), {mvo, b}, h);
  OpRef leaf;
  if (embed_leaves) {
    OpRef table = ra::input_tensor("Emb", {vocab, h});
    leaf = ra::embed_lookup("leafe", table, h);
  } else {
    // Uniform non-zero initial state: the §4.3 "hoisted" case.
    leaf = ra::const_init("leafc", 0.1, h);
  }
  OpRef body = ra::if_then_else("body", ra::is_leaf(vn()), leaf, hh);
  def.model = ra::make_model(def.name, ra::recursion_op(ph, body),
                             linearizer::StructureKind::kTree, 2);
  def.sync_points_per_step = 1;
  return def;
}

}  // namespace

ModelDef make_treefc(std::int64_t hidden, std::int64_t vocab) {
  return make_treefc_impl(hidden, vocab, /*embed_leaves=*/false);
}

ModelDef make_treefc_embed(std::int64_t hidden, std::int64_t vocab) {
  return make_treefc_impl(hidden, vocab, /*embed_leaves=*/true);
}

ModelDef make_treegru(std::int64_t hidden, std::int64_t vocab) {
  return make_treegru_impl(hidden, vocab, /*simple=*/false,
                           /*embed_leaves=*/false);
}

ModelDef make_treegru_embed(std::int64_t hidden, std::int64_t vocab) {
  return make_treegru_impl(hidden, vocab, /*simple=*/false,
                           /*embed_leaves=*/true);
}

ModelDef make_simple_treegru(std::int64_t hidden, std::int64_t vocab) {
  return make_treegru_impl(hidden, vocab, /*simple=*/true,
                           /*embed_leaves=*/false);
}

ModelDef make_treelstm(std::int64_t hidden, std::int64_t vocab) {
  return make_treelstm_impl(hidden, vocab, /*embed_leaves=*/false);
}

ModelDef make_treelstm_embed(std::int64_t hidden, std::int64_t vocab) {
  return make_treelstm_impl(hidden, vocab, /*embed_leaves=*/true);
}

ModelDef make_dagrnn(std::int64_t h, std::int64_t vocab) {
  using ra::add;
  using ra::call;
  ModelDef def;
  def.name = "DAG-RNN";
  def.hidden = h;
  def.vocab = vocab;
  def.param_shapes = {{"U", {h, h}}, {"Emb", {vocab, h}}, {"b", {h}}};

  // One formula covers sources and interior nodes: the predecessor sum of
  // a source is empty. No leaf branch => specialization is a no-op, which
  // is exactly the paper's Fig. 10a observation for DAG-RNN.
  def.cell.state_width = h;
  def.cell.num_children = 2;  // grid DAGs have fan-in <= 2
  def.cell.internal_ops = {
      csum("hs", h),
      mv("mvo", "U", "hs", h),
      emb("x", "Emb", h),
      elt("h", h, {"mvo", "x"},
          call(ra::CallFn::kTanh, add(add(e0(), e1()), cp("b")))),
  };
  def.cell.leaf_ops = {};  // same program runs at sources

  OpRef ph = ra::placeholder("dg", {h});
  OpRef u = ra::input_tensor("U", {h, h});
  OpRef table = ra::input_tensor("Emb", {vocab, h});
  OpRef b = ra::input_tensor("b", {h});
  OpRef hs = ra::child_sum("hs", ph, h);
  OpRef mvo = ra::matvec("mvo", u, hs);
  OpRef x = ra::embed_lookup("x", table, h);
  OpRef hh = ra::eltwise(
      "h", call(ra::CallFn::kTanh, add(add(at(mvo), at(x)), p1("b"))),
      {mvo, x, b}, h);
  def.model = ra::make_model(def.name, ra::recursion_op(ph, hh),
                             linearizer::StructureKind::kDag, 8);
  def.sync_points_per_step = 1;
  return def;
}

ModelDef make_mvrnn(std::int64_t h, std::int64_t vocab) {
  using ra::add;
  using ra::call;
  using ra::mul;
  ModelDef def;
  def.name = "MV-RNN";
  def.hidden = h;
  def.vocab = vocab;
  const std::int64_t hh2 = h * h;
  const std::int64_t sw = h + hh2;  // state: [p (H) ; vec(P) (HxH)]
  def.param_shapes = {{"W", {h, 2 * h}},
                      {"WM", {h, 2 * h}},
                      {"b", {h}},
                      {"EmbVec", {vocab, h}},
                      {"EmbMat", {vocab, hh2}}};

  def.cell.state_width = sw;
  def.cell.num_children = 2;
  def.cell.internal_ops = {
      slice("a1", 0, 0, h),   slice("A1", 0, h, hh2),
      slice("a2", 1, 0, h),   slice("A2", 1, h, hh2),
      node_mv("m1", "A2", "a1", h),  // A2 @ a1
      node_mv("m2", "A1", "a2", h),  // A1 @ a2
      cat2("mc", "m1", "m2", 2 * h),
      mv("pm", "W", "mc", h),
      elt("p", h, {"pm"}, call(ra::CallFn::kTanh, add(e0(), cp("b")))),
      mat_stack2("Pm", "WM", "A1", "A2", hh2),
      cat2("st", "p", "Pm", sw),
  };
  def.cell.leaf_ops = {
      emb("ev", "EmbVec", h),
      emb("em", "EmbMat", hh2),
      cat2("st", "ev", "em", sw),
  };

  // RA twin. The per-node matrix lives flattened inside the state, so the
  // matrix-vector products index it with composite (affine) expressions.
  OpRef ph = ra::placeholder("mvr", {sw});
  OpRef w = ra::input_tensor("W", {h, 2 * h});
  OpRef wm = ra::input_tensor("WM", {h, 2 * h});
  OpRef b = ra::input_tensor("b", {h});
  OpRef ev_t = ra::input_tensor("EmbVec", {vocab, h});
  OpRef em_t = ra::input_tensor("EmbMat", {vocab, hh2});
  OpRef a1 = ra::child_read_slice("a1", ph, 0, 0, h);
  OpRef am1 = ra::child_read_slice("A1", ph, 0, h, hh2);
  OpRef a2 = ra::child_read_slice("a2", ph, 1, 0, h);
  OpRef am2 = ra::child_read_slice("A2", ph, 1, h, hh2);
  // m1[n,i] = sum_j A2[n, i*H + j] * a1[n, j]
  auto node_matvec_ra = [&](const std::string& name, const OpRef& m,
                            const OpRef& v) {
    Expr body =
        ra::sum("j", ra::imm(h),
                mul(ra::load(m->name,
                             {vn(), add(mul(vi(), ra::imm(h)), ra::var("j"))}),
                    ra::load(v->name, {vn(), ra::var("j")})));
    return ra::compute(name, {"n", "i"}, {ra::var("N"), ra::imm(h)},
                       std::move(body), {m, v});
  };
  OpRef m1 = node_matvec_ra("m1", am2, a1);
  OpRef m2 = node_matvec_ra("m2", am1, a2);
  OpRef mc = ra::eltwise("mc", concat_body(m1, h, m2), {m1, m2}, 2 * h);
  OpRef pm = ra::matvec("pm", w, mc);
  OpRef p = ra::eltwise("p", call(ra::CallFn::kTanh, add(at(pm), p1("b"))),
                        {pm, b}, h);
  // Pm[n, i] with i = r*H + c: sum_k WM[r,k] * vstack(A1,A2)[k,c].
  {
    Expr r = ra::div(vi(), ra::imm(h));
    Expr c = ra::sub(vi(), mul(ra::div(vi(), ra::imm(h)), ra::imm(h)));
    Expr k = ra::var("k");
    Expr stacked = ra::select(
        ra::lt(k, ra::imm(h)),
        ra::load(am1->name, {vn(), add(mul(k, ra::imm(h)), c)}),
        ra::load(am2->name,
                 {vn(), add(mul(ra::sub(k, ra::imm(h)), ra::imm(h)), c)}));
    Expr body = ra::sum(
        "k", ra::imm(2 * h),
        mul(ra::load("WM", {r, ra::var("k")}), stacked));
    OpRef pmat = ra::compute("Pm", {"n", "i"}, {ra::var("N"), ra::imm(hh2)},
                             std::move(body), {am1, am2, wm});
    OpRef st = ra::eltwise("st", concat_body(p, h, pmat), {p, pmat}, sw);
    OpRef eh = ra::embed_lookup("ev", ev_t, h);
    OpRef em = ra::embed_lookup("em", em_t, hh2);
    OpRef leaf = ra::eltwise("lst", concat_body(eh, h, em), {eh, em}, sw);
    OpRef body_op = ra::if_then_else("body", ra::is_leaf(vn()), leaf, st);
    def.model = ra::make_model(def.name, ra::recursion_op(ph, body_op),
                               linearizer::StructureKind::kTree, 2);
  }
  def.sync_points_per_step = 1;
  return def;
}

ModelDef make_treernn(std::int64_t h, std::int64_t vocab) {
  using ra::add;
  using ra::call;
  ModelDef def;
  def.name = "TreeRNN";
  def.hidden = h;
  def.vocab = vocab;
  def.param_shapes = {
      {"Wl", {h, h}}, {"Wr", {h, h}}, {"b", {h}}, {"Emb", {vocab, h}}};

  def.cell.state_width = h;
  def.cell.num_children = 2;
  def.cell.internal_ops = {
      slice("lh", 0, 0, h),
      slice("rh", 1, 0, h),
      mv("ml", "Wl", "lh", h),
      mv("mr", "Wr", "rh", h),
      elt("h", h, {"ml", "mr"},
          call(ra::CallFn::kTanh, add(add(e0(), e1()), cp("b")))),
  };
  def.cell.leaf_ops = {emb("h", "Emb", h)};

  OpRef ph = ra::placeholder("rnn", {h});
  OpRef wl = ra::input_tensor("Wl", {h, h});
  OpRef wr = ra::input_tensor("Wr", {h, h});
  OpRef b = ra::input_tensor("b", {h});
  OpRef table = ra::input_tensor("Emb", {vocab, h});
  OpRef lh = ra::child_read("lh", ph, 0, h);
  OpRef rh = ra::child_read("rh", ph, 1, h);
  OpRef ml = ra::matvec("ml", wl, lh);
  OpRef mr = ra::matvec("mr", wr, rh);
  OpRef hh = ra::eltwise(
      "h", call(ra::CallFn::kTanh, add(add(at(ml), at(mr)), p1("b"))),
      {ml, mr, b}, h);
  OpRef leaf = ra::embed_lookup("leafe", table, h);
  OpRef body = ra::if_then_else("body", ra::is_leaf(vn()), leaf, hh);
  def.model = ra::make_model(def.name, ra::recursion_op(ph, body),
                             linearizer::StructureKind::kTree, 2);
  // The paper's TreeRNN schedule computes one node per thread block, so
  // unrolled schedules need no extra device-wide barriers (Fig. 10b).
  def.block_local_schedule = true;
  def.sync_points_per_step = 1;
  return def;
}

ModelDef make_treernn_fig1(std::int64_t h, std::int64_t vocab) {
  using ra::add;
  using ra::call;
  ModelDef def;
  def.name = "TreeRNN-fig1";
  def.hidden = h;
  def.vocab = vocab;
  def.param_shapes = {{"Emb", {vocab, h}}};

  def.cell.state_width = h;
  def.cell.num_children = 2;
  def.cell.internal_ops = {
      slice("lh", 0, 0, h),
      slice("rh", 1, 0, h),
      elt("h", h, {"lh", "rh"}, call(ra::CallFn::kTanh, add(e0(), e1()))),
  };
  def.cell.leaf_ops = {emb("h", "Emb", h)};

  // Listing 1, verbatim structure: Emb lookup at leaves, tanh(lh+rh) else.
  OpRef ph = ra::placeholder("rnn", {h});
  OpRef table = ra::input_tensor("Emb", {vocab, h});
  OpRef leaf = ra::embed_lookup("leaf_case", table, h);
  OpRef lh = ra::child_read("lh", ph, 0, h);
  OpRef rh = ra::child_read("rh", ph, 1, h);
  OpRef rec = ra::eltwise("recursive_case",
                          call(ra::CallFn::kTanh, add(at(lh), at(rh))),
                          {lh, rh}, h);
  OpRef body = ra::if_then_else("body", ra::is_leaf(vn()), leaf, rec);
  def.model = ra::make_model(def.name, ra::recursion_op(ph, body),
                             linearizer::StructureKind::kTree, 2);
  def.block_local_schedule = true;
  def.sync_points_per_step = 1;
  return def;
}

ModelDef make_treernn_zeroleaf(std::int64_t h, std::int64_t vocab) {
  ModelDef def = make_treernn(h, vocab);
  def.name = "TreeRNN-zeroleaf";
  def.cell.leaf_ops = {cst("h", 0.0, h)};

  using ra::add;
  using ra::call;
  OpRef ph = ra::placeholder("rnn", {h});
  OpRef wl = ra::input_tensor("Wl", {h, h});
  OpRef wr = ra::input_tensor("Wr", {h, h});
  OpRef b = ra::input_tensor("b", {h});
  OpRef lh = ra::child_read("lh", ph, 0, h);
  OpRef rh = ra::child_read("rh", ph, 1, h);
  OpRef ml = ra::matvec("ml", wl, lh);
  OpRef mr = ra::matvec("mr", wr, rh);
  OpRef hh = ra::eltwise(
      "h", call(ra::CallFn::kTanh, add(add(at(ml), at(mr)), p1("b"))),
      {ml, mr, b}, h);
  OpRef leaf = ra::const_init("leafc", 0.0, h);
  OpRef body = ra::if_then_else("body", ra::is_leaf(vn()), leaf, hh);
  def.model = ra::make_model(def.name, ra::recursion_op(ph, body),
                             linearizer::StructureKind::kTree, 2);
  def.param_shapes = {{"Wl", {h, h}}, {"Wr", {h, h}}, {"b", {h}}};
  return def;
}

namespace {

/// Concat of a per-node op (width wa) with a zero tail, as an RA body.
Expr concat_zero_body(const OpRef& a, std::int64_t wa) {
  Expr clamped = ra::binary(ra::BinOp::kMin, vi(), ra::imm(wa - 1));
  return ra::select(ra::lt(vi(), ra::imm(wa)),
                    ra::load(a->name, {vn(), std::move(clamped)}),
                    ra::fimm(0.0));
}

}  // namespace

ModelDef make_seq_lstm(std::int64_t h, std::int64_t vocab) {
  using ra::add;
  using ra::call;
  using ra::mul;
  ModelDef def;
  def.name = "SeqLSTM";
  def.hidden = h;
  def.vocab = vocab;
  def.param_shapes = {{"Wi", {h, h}}, {"Wf", {h, h}}, {"Wo", {h, h}},
                      {"Wu", {h, h}}, {"Ui", {h, h}}, {"Uf", {h, h}},
                      {"Uo", {h, h}}, {"Uu", {h, h}}, {"bi", {h}},
                      {"bf", {h}},    {"bo", {h}},    {"bu", {h}},
                      {"Emb", {vocab, h}}};

  // Runs over chain trees: left child = previous timestep state [h;c],
  // right child = a leaf holding [x; 0] (the embedded token).
  def.cell.state_width = 2 * h;
  def.cell.num_children = 2;
  auto gate = [&](const std::string& g, const std::string& wx,
                  const std::string& uh, const std::string& bias,
                  ra::CallFn fn) {
    std::vector<CellOp> ops;
    ops.push_back(mv(g + "_x", wx, "x", h));
    ops.push_back(mv(g + "_h", uh, "hp", h));
    ops.push_back(elt(g, h, {g + "_x", g + "_h"},
                      call(fn, add(add(e0(), e1()), cp(bias)))));
    return ops;
  };
  auto& ops = def.cell.internal_ops;
  ops.push_back(slice("hp", 0, 0, h));  // previous h
  ops.push_back(slice("cp", 0, h, h));  // previous c
  ops.push_back(slice("x", 1, 0, h));   // current input (leaf h-slot)
  for (const CellOp& op : gate("ig", "Wi", "Ui", "bi", ra::CallFn::kSigmoid))
    ops.push_back(op);
  for (const CellOp& op : gate("fg", "Wf", "Uf", "bf", ra::CallFn::kSigmoid))
    ops.push_back(op);
  for (const CellOp& op : gate("og", "Wo", "Uo", "bo", ra::CallFn::kSigmoid))
    ops.push_back(op);
  for (const CellOp& op : gate("ug", "Wu", "Uu", "bu", ra::CallFn::kTanh))
    ops.push_back(op);
  ops.push_back(elt("c", h, {"fg", "cp", "ig", "ug"},
                    add(mul(e0(), e1()), mul(e2(), ra::var("e3")))));
  ops.push_back(
      elt("hh", h, {"og", "c"}, mul(e0(), call(ra::CallFn::kTanh, e1()))));
  ops.push_back(cat2("st", "hh", "c", 2 * h));

  def.cell.leaf_ops = {emb("eh", "Emb", h), cst("ec", 0.0, h),
                       cat2("st", "eh", "ec", 2 * h)};
  def.sync_points_per_step = 1;

  // RA twin: sequences are chains — left child is the previous timestep,
  // right child is the leaf carrying the embedded token in its h slot.
  {
    OpRef ph = ra::placeholder("seq", {2 * h});
    std::map<std::string, OpRef> w;
    for (const auto& [name, shape] : def.param_shapes)
      w[name] = ra::input_tensor(name, shape);
    OpRef hp = ra::child_read_slice("hp", ph, 0, 0, h);
    OpRef cp = ra::child_read_slice("cp", ph, 0, h, h);
    OpRef x = ra::child_read_slice("x", ph, 1, 0, h);
    auto gate_ra = [&](const std::string& g, const std::string& wx,
                       const std::string& uh, const std::string& bias,
                       ra::CallFn fn) {
      OpRef gx = ra::matvec(g + "_x", w.at(wx), x);
      OpRef gh = ra::matvec(g + "_h", w.at(uh), hp);
      return ra::eltwise(
          g, call(fn, add(add(at(gx), at(gh)), p1(bias))),
          {gx, gh, w.at(bias)}, h);
    };
    OpRef ig = gate_ra("ig", "Wi", "Ui", "bi", ra::CallFn::kSigmoid);
    OpRef fg = gate_ra("fg", "Wf", "Uf", "bf", ra::CallFn::kSigmoid);
    OpRef og = gate_ra("og", "Wo", "Uo", "bo", ra::CallFn::kSigmoid);
    OpRef ug = gate_ra("ug", "Wu", "Uu", "bu", ra::CallFn::kTanh);
    OpRef c = ra::eltwise(
        "c", add(mul(at(fg), at(cp)), mul(at(ig), at(ug))),
        {fg, cp, ig, ug}, h);
    OpRef hh = ra::eltwise("hh", mul(at(og), call(ra::CallFn::kTanh, at(c))),
                           {og, c}, h);
    OpRef st = ra::eltwise("st", concat_body(hh, h, c), {hh, c}, 2 * h);
    OpRef eh = ra::embed_lookup("eh", w.at("Emb"), h);
    OpRef leaf = ra::eltwise("lst", concat_zero_body(eh, h), {eh}, 2 * h);
    OpRef body = ra::if_then_else("body", ra::is_leaf(vn()), leaf, st);
    def.model = ra::make_model(def.name, ra::recursion_op(ph, body),
                               linearizer::StructureKind::kTree, 2);
  }
  return def;
}

ModelDef make_seq_gru(std::int64_t h, std::int64_t vocab) {
  using ra::add;
  using ra::call;
  using ra::mul;
  using ra::sub;
  ModelDef def;
  def.name = "SeqGRU";
  def.hidden = h;
  def.vocab = vocab;
  def.param_shapes = {{"Wz", {h, h}}, {"Wr", {h, h}}, {"Wh", {h, h}},
                      {"Uz", {h, h}}, {"Ur", {h, h}}, {"Uh", {h, h}},
                      {"bz", {h}},    {"br", {h}},    {"bh", {h}},
                      {"Emb", {vocab, h}}};

  def.cell.state_width = h;
  def.cell.num_children = 2;
  auto& ops = def.cell.internal_ops;
  ops.push_back(slice("hp", 0, 0, h));
  ops.push_back(slice("x", 1, 0, h));
  ops.push_back(mv("z_x", "Wz", "x", h));
  ops.push_back(mv("z_h", "Uz", "hp", h));
  ops.push_back(elt("z", h, {"z_x", "z_h"},
                    call(ra::CallFn::kSigmoid, add(add(e0(), e1()), cp("bz")))));
  ops.push_back(mv("r_x", "Wr", "x", h));
  ops.push_back(mv("r_h", "Ur", "hp", h));
  ops.push_back(elt("r", h, {"r_x", "r_h"},
                    call(ra::CallFn::kSigmoid, add(add(e0(), e1()), cp("br")))));
  ops.push_back(elt("rh", h, {"r", "hp"}, mul(e0(), e1())));
  ops.push_back(mv("h_x", "Wh", "x", h));
  ops.push_back(mv("h_h", "Uh", "rh", h));
  ops.push_back(elt("hc", h, {"h_x", "h_h"},
                    call(ra::CallFn::kTanh, add(add(e0(), e1()), cp("bh")))));
  ops.push_back(elt("h", h, {"z", "hp", "hc"},
                    add(mul(e0(), e1()), mul(sub(ra::fimm(1.0), e0()), e2()))));

  def.cell.leaf_ops = {emb("h", "Emb", h)};
  // Phase 2 (Uh @ (r*h)) reads phase-1 output r: two sync points unless
  // refactored (the GRNN GRU trick the paper reuses, §7.4).
  def.sync_points_per_step = 2;
  def.refactor_extra_bytes_per_node = 0;

  // RA twin over chains: left child = previous step, right = token leaf.
  {
    OpRef ph = ra::placeholder("seq", {h});
    std::map<std::string, OpRef> w;
    for (const auto& [name, shape] : def.param_shapes)
      w[name] = ra::input_tensor(name, shape);
    OpRef hp = ra::child_read("hp", ph, 0, h);
    OpRef x = ra::child_read("x", ph, 1, h);
    auto two_mv = [&](const std::string& g, const std::string& wx,
                      const std::string& uh, const OpRef& hin,
                      const std::string& bias, ra::CallFn fn) {
      OpRef gx = ra::matvec(g + "_x", w.at(wx), x);
      OpRef gh = ra::matvec(g + "_h", w.at(uh), hin);
      return ra::eltwise(g, call(fn, add(add(at(gx), at(gh)), p1(bias))),
                         {gx, gh, w.at(bias)}, h);
    };
    OpRef z = two_mv("z", "Wz", "Uz", hp, "bz", ra::CallFn::kSigmoid);
    OpRef r = two_mv("r", "Wr", "Ur", hp, "br", ra::CallFn::kSigmoid);
    OpRef rh = ra::eltwise("rh", mul(at(r), at(hp)), {r, hp}, h);
    OpRef hc = two_mv("hc", "Wh", "Uh", rh, "bh", ra::CallFn::kTanh);
    OpRef hh = ra::eltwise(
        "h", add(mul(at(z), at(hp)), mul(sub(ra::fimm(1.0), at(z)), at(hc))),
        {z, hp, hc}, h);
    OpRef leaf = ra::embed_lookup("lst", w.at("Emb"), h);
    OpRef body = ra::if_then_else("body", ra::is_leaf(vn()), leaf, hh);
    def.model = ra::make_model(def.name, ra::recursion_op(ph, body),
                               linearizer::StructureKind::kTree, 2);
  }
  return def;
}

void fingerprint(const ModelDef& def, support::FingerprintBuilder& fb) {
  fb.tag('D');
  fb.add(def.name);
  fb.add(def.hidden);
  fb.add(def.vocab);
  fingerprint(def.cell, fb);
  fb.add(def.model.has_value());
  if (def.model) ra::fingerprint(*def.model, fb);
  // param_shapes is a keyed lookup table: canonicalize by name so entry
  // order is not part of the key (see the header's field-sensitivity doc).
  std::vector<std::pair<std::string, std::vector<std::int64_t>>> shapes =
      def.param_shapes;
  std::sort(shapes.begin(), shapes.end());
  fb.add(static_cast<std::int64_t>(shapes.size()));
  for (const auto& [name, shape] : shapes) {
    fb.add(name);
    fb.add(static_cast<std::int64_t>(shape.size()));
    for (const std::int64_t d : shape) fb.add(d);
  }
}

}  // namespace cortex::models
