#include "models/model_zoo.hpp"

#include <algorithm>
#include <map>

#include "ra/op.hpp"

namespace cortex::models {

namespace {

using ra::add;
using ra::call;
using ra::CallFn;
using ra::Expr;
using ra::mul;
using ra::OpRef;
using ra::sub;
using Weights = std::map<std::string, OpRef>;

Expr vn() { return ra::var("n"); }
Expr vi() { return ra::var("i"); }
/// Per-node load op[n, i].
Expr at(const OpRef& op) { return ra::load(op->name, {vn(), vi()}); }

/// The model's weights as RA input tensors, one per def.param_shapes
/// entry, so each shape is spelled once.
Weights weights(const ModelDef& def) {
  Weights w;
  for (const auto& [name, shape] : def.param_shapes)
    w[name] = ra::input_tensor(name, shape);
  return w;
}

/// name[n,i] = fn(terms[0][n,i] + terms[1][n,i] + ... + bias[i]).
OpRef gate(std::string name, CallFn fn, std::vector<OpRef> terms,
           const OpRef& bias, std::int64_t width) {
  Expr sum = at(terms.front());
  for (std::size_t k = 1; k < terms.size(); ++k)
    sum = add(std::move(sum), at(terms[k]));
  Expr body = call(fn, add(std::move(sum), ra::load(bias->name, {vi()})));
  terms.push_back(bias);
  return ra::eltwise(std::move(name), std::move(body), std::move(terms),
                     width);
}

/// Sets def.model to the recursion over binary trees that computes
/// `leaf` at leaves and `internal` elsewhere, and def.cell to the cell
/// derived from it.
void define_tree(ModelDef& def, const OpRef& ph, OpRef leaf,
                 OpRef internal) {
  OpRef body = ra::if_then_else("body", ra::is_leaf(vn()), std::move(leaf),
                                std::move(internal));
  def.model = ra::make_model(def.name, ra::recursion_op(ph, std::move(body)),
                             linearizer::StructureKind::kTree, 2);
  def.cell = cell_from_ra(*def.model);
}

/// The leaf branch shared by the single-vector tree models: an embedding
/// lookup, or the uniform initial state `value`.
OpRef vector_leaf(const Weights& w, bool embed_leaves, double value,
                  std::int64_t h) {
  if (embed_leaves) return ra::embed_lookup("leafe", w.at("Emb"), h);
  return ra::const_init("leafc", value, h);
}

ModelDef make_treegru_impl(std::int64_t h, std::int64_t vocab, bool simple,
                           bool embed_leaves) {
  ModelDef def;
  def.name = embed_leaves ? (simple ? "SimpleTreeGRU-emb" : "TreeGRU-emb")
                          : (simple ? "SimpleTreeGRU" : "TreeGRU");
  def.hidden = h;
  def.vocab = vocab;
  def.param_shapes = {{"Uz", {h, h}}, {"Ur", {h, h}}, {"Uh", {h, h}},
                      {"bz", {h}},    {"br", {h}},    {"bh", {h}}};
  if (embed_leaves) def.param_shapes.push_back({"Emb", {vocab, h}});
  const Weights w = weights(def);

  OpRef ph = ra::placeholder("gru", {h});
  OpRef hs = ra::child_sum("hs", ph, h);
  OpRef zb = ra::matvec("zb", w.at("Uz"), hs);
  OpRef z = gate("z", CallFn::kSigmoid, {zb}, w.at("bz"), h);
  OpRef rb = ra::matvec("rb", w.at("Ur"), hs);
  OpRef r = gate("r", CallFn::kSigmoid, {rb}, w.at("br"), h);
  OpRef rh = ra::eltwise("rh", mul(at(r), at(hs)), {r, hs}, h);
  OpRef hb = ra::matvec("hb", w.at("Uh"), rh);
  OpRef hc = gate("hc", CallFn::kTanh, {hb}, w.at("bh"), h);
  // SimpleTreeGRU (§7.4 footnote 4): h = (1 - z) * h'; else
  // h = z * hsum + (1 - z) * h'.
  OpRef hh =
      simple ? ra::eltwise("h", mul(sub(ra::fimm(1.0), at(z)), at(hc)),
                           {z, hc}, h)
             : ra::eltwise("h",
                           add(mul(at(z), at(hs)),
                               mul(sub(ra::fimm(1.0), at(z)), at(hc))),
                           {z, hs, hc}, h);
  define_tree(def, ph, vector_leaf(w, embed_leaves, 0.0, h), hh);

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
  const Weights w = weights(def);

  // State layout: [h (H) ; c (H)].
  OpRef ph = ra::placeholder("lstm", {2 * h});
  OpRef hs = ra::child_sum("hs", ph, h);  // sum of children h
  OpRef hl = ra::child_read_slice("hl", ph, 0, 0, h);
  OpRef hr = ra::child_read_slice("hr", ph, 1, 0, h);
  OpRef cl = ra::child_read_slice("cl", ph, 0, h, h);
  OpRef cr = ra::child_read_slice("cr", ph, 1, h, h);
  OpRef ib = ra::matvec("ib", w.at("Ui"), hs);
  OpRef ig = gate("ig", CallFn::kSigmoid, {ib}, w.at("bi"), h);
  OpRef ob = ra::matvec("ob", w.at("Uo"), hs);
  OpRef og = gate("og", CallFn::kSigmoid, {ob}, w.at("bo"), h);
  OpRef ub = ra::matvec("ub", w.at("Uu"), hs);
  OpRef ug = gate("ug", CallFn::kTanh, {ub}, w.at("bu"), h);
  OpRef flb = ra::matvec("flb", w.at("Uf"), hl);
  OpRef fl = gate("fl", CallFn::kSigmoid, {flb}, w.at("bf"), h);
  OpRef frb = ra::matvec("frb", w.at("Uf"), hr);
  OpRef fr = gate("fr", CallFn::kSigmoid, {frb}, w.at("bf"), h);
  // c = i*u + fl*cl + fr*cr
  OpRef c = ra::eltwise(
      "c",
      add(mul(at(ig), at(ug)), add(mul(at(fl), at(cl)), mul(at(fr), at(cr)))),
      {ig, ug, fl, cl, fr, cr}, h);
  // hh = o * tanh(c)
  OpRef hh = ra::eltwise("hh", mul(at(og), call(CallFn::kTanh, at(c))),
                         {og, c}, h);
  OpRef st = ra::concat("st", hh, c);

  OpRef leaf;
  if (embed_leaves) {
    OpRef eh = ra::embed_lookup("eh", w.at("Emb"), h);
    OpRef ec = ra::embed_lookup("ec", w.at("EmbC"), h);
    leaf = ra::concat("lst", eh, ec);
  } else {
    leaf = ra::const_init("lst", 0.0, 2 * h);
  }
  define_tree(def, ph, leaf, st);
  def.sync_points_per_step = 1;  // all gates read only children states
  return def;
}

ModelDef make_treefc_impl(std::int64_t h, std::int64_t vocab,
                          bool embed_leaves) {
  ModelDef def;
  def.name = embed_leaves ? "TreeFC-emb" : "TreeFC";
  def.hidden = h;
  def.vocab = vocab;
  def.param_shapes = {{"W", {h, 2 * h}}, {"b", {h}}};
  if (embed_leaves) def.param_shapes.push_back({"Emb", {vocab, h}});
  const Weights w = weights(def);

  OpRef ph = ra::placeholder("fc", {h});
  OpRef lh = ra::child_read("lh", ph, 0, h);
  OpRef rh = ra::child_read("rh", ph, 1, h);
  OpRef cc = ra::concat("cc", lh, rh);
  OpRef mvo = ra::matvec("mvo", w.at("W"), cc);
  OpRef hh = gate("h", CallFn::kRelu, {mvo}, w.at("b"), h);
  // Without embeddings, leaves hold a uniform non-zero initial state: the
  // §4.3 "hoisted" case.
  define_tree(def, ph, vector_leaf(w, embed_leaves, 0.1, h), hh);
  def.sync_points_per_step = 1;
  return def;
}

ModelDef make_treernn_impl(std::int64_t h, std::int64_t vocab,
                           bool zero_leaf) {
  ModelDef def;
  def.name = zero_leaf ? "TreeRNN-zeroleaf" : "TreeRNN";
  def.hidden = h;
  def.vocab = vocab;
  def.param_shapes = {{"Wl", {h, h}}, {"Wr", {h, h}}, {"b", {h}}};
  if (!zero_leaf) def.param_shapes.push_back({"Emb", {vocab, h}});
  const Weights w = weights(def);

  OpRef ph = ra::placeholder("rnn", {h});
  OpRef lh = ra::child_read("lh", ph, 0, h);
  OpRef rh = ra::child_read("rh", ph, 1, h);
  OpRef ml = ra::matvec("ml", w.at("Wl"), lh);
  OpRef mr = ra::matvec("mr", w.at("Wr"), rh);
  OpRef hh = gate("h", CallFn::kTanh, {ml, mr}, w.at("b"), h);
  define_tree(def, ph, vector_leaf(w, !zero_leaf, 0.0, h), hh);
  // The paper's TreeRNN schedule computes one node per thread block, so
  // unrolled schedules need no extra device-wide barriers (Fig. 10b).
  def.block_local_schedule = true;
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

ModelDef make_treernn(std::int64_t hidden, std::int64_t vocab) {
  return make_treernn_impl(hidden, vocab, /*zero_leaf=*/false);
}

ModelDef make_treernn_zeroleaf(std::int64_t hidden, std::int64_t vocab) {
  return make_treernn_impl(hidden, vocab, /*zero_leaf=*/true);
}

ModelDef make_dagrnn(std::int64_t h, std::int64_t vocab) {
  ModelDef def;
  def.name = "DAG-RNN";
  def.hidden = h;
  def.vocab = vocab;
  def.param_shapes = {{"U", {h, h}}, {"Emb", {vocab, h}}, {"b", {h}}};
  const Weights w = weights(def);

  // One formula covers sources and interior nodes: the predecessor sum of
  // a source is empty. No leaf branch => specialization is a no-op, which
  // is exactly the paper's Fig. 10a observation for DAG-RNN.
  OpRef ph = ra::placeholder("dg", {h});
  OpRef hs = ra::child_sum("hs", ph, h);
  OpRef mvo = ra::matvec("mvo", w.at("U"), hs);
  OpRef x = ra::embed_lookup("x", w.at("Emb"), h);
  OpRef hh = gate("h", CallFn::kTanh, {mvo, x}, w.at("b"), h);
  def.model = ra::make_model(def.name, ra::recursion_op(ph, hh),
                             linearizer::StructureKind::kDag, 8);
  def.cell = cell_from_ra(*def.model);
  // The RA bound of 8 predecessors sizes the linearizer; the grid DAGs
  // the evaluation runs have fan-in <= 2, which the cost accounting reads
  // from the cell.
  def.cell.num_children = 2;
  def.sync_points_per_step = 1;
  return def;
}

ModelDef make_mvrnn(std::int64_t h, std::int64_t vocab) {
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
  const Weights w = weights(def);

  // The per-node matrix lives flattened inside the state, so the
  // matrix-vector products index it with composite (affine) expressions.
  OpRef ph = ra::placeholder("mvr", {sw});
  OpRef a1 = ra::child_read_slice("a1", ph, 0, 0, h);
  OpRef am1 = ra::child_read_slice("A1", ph, 0, h, hh2);
  OpRef a2 = ra::child_read_slice("a2", ph, 1, 0, h);
  OpRef am2 = ra::child_read_slice("A2", ph, 1, h, hh2);
  OpRef m1 = ra::node_matvec("m1", am2, a1);  // A2 @ a1
  OpRef m2 = ra::node_matvec("m2", am1, a2);  // A1 @ a2
  OpRef mc = ra::concat("mc", m1, m2);
  OpRef pm = ra::matvec("pm", w.at("W"), mc);
  OpRef p = gate("p", CallFn::kTanh, {pm}, w.at("b"), h);
  OpRef pmat = ra::mat_stack2("Pm", w.at("WM"), am1, am2);
  OpRef st = ra::concat("st", p, pmat);
  OpRef ev = ra::embed_lookup("ev", w.at("EmbVec"), h);
  OpRef em = ra::embed_lookup("em", w.at("EmbMat"), hh2);
  define_tree(def, ph, ra::concat("lst", ev, em), st);
  def.sync_points_per_step = 1;
  return def;
}

ModelDef make_treernn_fig1(std::int64_t h, std::int64_t vocab) {
  ModelDef def;
  def.name = "TreeRNN-fig1";
  def.hidden = h;
  def.vocab = vocab;
  def.param_shapes = {{"Emb", {vocab, h}}};
  const Weights w = weights(def);

  // Listing 1, verbatim structure: Emb lookup at leaves, tanh(lh+rh) else.
  OpRef ph = ra::placeholder("rnn", {h});
  OpRef leaf = ra::embed_lookup("leaf_case", w.at("Emb"), h);
  OpRef lh = ra::child_read("lh", ph, 0, h);
  OpRef rh = ra::child_read("rh", ph, 1, h);
  OpRef rec = ra::eltwise("recursive_case",
                          call(CallFn::kTanh, add(at(lh), at(rh))), {lh, rh},
                          h);
  define_tree(def, ph, leaf, rec);
  def.block_local_schedule = true;
  def.sync_points_per_step = 1;
  return def;
}

ModelDef make_seq_lstm(std::int64_t h, std::int64_t vocab) {
  ModelDef def;
  def.name = "SeqLSTM";
  def.hidden = h;
  def.vocab = vocab;
  def.param_shapes = {{"Wi", {h, h}}, {"Wf", {h, h}}, {"Wo", {h, h}},
                      {"Wu", {h, h}}, {"Ui", {h, h}}, {"Uf", {h, h}},
                      {"Uo", {h, h}}, {"Uu", {h, h}}, {"bi", {h}},
                      {"bf", {h}},    {"bo", {h}},    {"bu", {h}},
                      {"Emb", {vocab, h}}};
  const Weights w = weights(def);

  // Sequences are chains: left child = previous timestep state [h; c],
  // right child = a leaf holding [x; 0] (the embedded token).
  OpRef ph = ra::placeholder("seq", {2 * h});
  OpRef hp = ra::child_read_slice("hp", ph, 0, 0, h);  // previous h
  OpRef cp = ra::child_read_slice("cp", ph, 0, h, h);  // previous c
  OpRef x = ra::child_read("x", ph, 1, h);  // current input (leaf h-slot)
  const auto lstm_gate = [&](const std::string& g, const std::string& wx,
                             const std::string& uh, const std::string& bias,
                             CallFn fn) {
    OpRef gx = ra::matvec(g + "_x", w.at(wx), x);
    OpRef gh = ra::matvec(g + "_h", w.at(uh), hp);
    return gate(g, fn, {gx, gh}, w.at(bias), h);
  };
  OpRef ig = lstm_gate("ig", "Wi", "Ui", "bi", CallFn::kSigmoid);
  OpRef fg = lstm_gate("fg", "Wf", "Uf", "bf", CallFn::kSigmoid);
  OpRef og = lstm_gate("og", "Wo", "Uo", "bo", CallFn::kSigmoid);
  OpRef ug = lstm_gate("ug", "Wu", "Uu", "bu", CallFn::kTanh);
  OpRef c = ra::eltwise("c", add(mul(at(fg), at(cp)), mul(at(ig), at(ug))),
                        {fg, cp, ig, ug}, h);
  OpRef hh = ra::eltwise("hh", mul(at(og), call(CallFn::kTanh, at(c))),
                         {og, c}, h);
  OpRef st = ra::concat("st", hh, c);
  OpRef eh = ra::embed_lookup("eh", w.at("Emb"), h);
  define_tree(def, ph, ra::concat("lst", eh, 2 * h), st);
  def.sync_points_per_step = 1;
  return def;
}

ModelDef make_seq_gru(std::int64_t h, std::int64_t vocab) {
  ModelDef def;
  def.name = "SeqGRU";
  def.hidden = h;
  def.vocab = vocab;
  def.param_shapes = {{"Wz", {h, h}}, {"Wr", {h, h}}, {"Wh", {h, h}},
                      {"Uz", {h, h}}, {"Ur", {h, h}}, {"Uh", {h, h}},
                      {"bz", {h}},    {"br", {h}},    {"bh", {h}},
                      {"Emb", {vocab, h}}};
  const Weights w = weights(def);

  // Chains: left child = previous step, right = token leaf.
  OpRef ph = ra::placeholder("seq", {h});
  OpRef hp = ra::child_read("hp", ph, 0, h);
  OpRef x = ra::child_read("x", ph, 1, h);
  const auto gru_gate = [&](const std::string& g, const std::string& wx,
                            const std::string& uh, const OpRef& hin,
                            const std::string& bias, CallFn fn) {
    OpRef gx = ra::matvec(g + "_x", w.at(wx), x);
    OpRef gh = ra::matvec(g + "_h", w.at(uh), hin);
    return gate(g, fn, {gx, gh}, w.at(bias), h);
  };
  OpRef z = gru_gate("z", "Wz", "Uz", hp, "bz", CallFn::kSigmoid);
  OpRef r = gru_gate("r", "Wr", "Ur", hp, "br", CallFn::kSigmoid);
  OpRef rh = ra::eltwise("rh", mul(at(r), at(hp)), {r, hp}, h);
  OpRef hc = gru_gate("hc", "Wh", "Uh", rh, "bh", CallFn::kTanh);
  OpRef hh = ra::eltwise(
      "h", add(mul(at(z), at(hp)), mul(sub(ra::fimm(1.0), at(z)), at(hc))),
      {z, hp, hc}, h);
  define_tree(def, ph, ra::embed_lookup("lst", w.at("Emb"), h), hh);
  // Phase 2 (Uh @ (r*h)) reads phase-1 output r: two sync points unless
  // refactored (the GRNN GRU trick the paper reuses, §7.4).
  def.sync_points_per_step = 2;
  def.refactor_extra_bytes_per_node = 0;
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
