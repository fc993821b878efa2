#include "lowering/lower.hpp"

#include <functional>
#include <set>

#include "ilir/bounds.hpp"
#include "ra/verify.hpp"

namespace cortex::lowering {

using ilir::Stmt;
using ra::Expr;
using ra::OpRef;

namespace {

/// Per-node compute operators reachable from `root` (inclusive), in
/// dependency order, excluding inputs and the placeholder.
std::vector<OpRef> branch_chain(const OpRef& root) {
  std::vector<OpRef> chain;
  std::set<const ra::Op*> seen;
  std::function<void(const OpRef&)> rec = [&](const OpRef& op) {
    if (!op || !seen.insert(op.get()).second) return;
    if (op->tag != ra::OpTag::kCompute) return;
    for (const OpRef& in : op->inputs) rec(in);
    chain.push_back(op);
  };
  rec(root);
  return chain;
}

/// Dimension name for a width (state-width collapses to d_hidden).
std::string width_dim(std::int64_t w, std::int64_t state_w) {
  return w == state_w ? "d_hidden" : "d_w" + std::to_string(w);
}

/// Emits the loop-nest stores for one branch chain; the final op of the
/// chain stores into `final_buffer` instead of its own buffer
/// (Listing 2: rnn[node,i] = tanh(lh+rh)). Inner loops are annotated
/// with the named dimension matching their operator's width (§A.2), so
/// ops narrower than the state (e.g. TreeLSTM's per-gate tensors) index
/// their own d_w<width> dimension.
Stmt emit_chain(const std::vector<OpRef>& chain,
                const std::string& final_buffer, std::int64_t state_w) {
  CORTEX_CHECK(!chain.empty()) << "empty operator chain";
  std::vector<Stmt> loops;
  for (std::size_t c = 0; c < chain.size(); ++c) {
    const OpRef& op = chain[c];
    const bool is_final = (c + 1 == chain.size());
    const std::string target = is_final ? final_buffer : op->name;
    const Expr body = ra::substitute(op->body, "n", ra::var("node"));
    const std::int64_t width = op->inner_elems();
    const std::string dim =
        is_final ? "d_hidden" : width_dim(width, state_w);
    loops.push_back(ilir::make_for(
        "i", ra::imm(0), ra::imm(width),
        ilir::make_store(target, {ra::var("node"), ra::var("i")}, body),
        ilir::ForKind::kSerial, false, false, dim));
  }
  return ilir::make_seq(std::move(loops));
}

/// Rewrites loads of the final chain op's own buffer to the output buffer
/// (consumers inside the same branch referencing the renamed final op).
/// Our models reference the final op only via the recursion placeholder,
/// so this is a no-op for them, but it keeps lowering correct in general.
Stmt rename_refs(const Stmt& s, const std::string& from,
                 const std::string& to) {
  if (from == to) return s;
  return ilir::transform(s, [&](const Stmt& t) -> Stmt {
    if (t->kind != ilir::StmtKind::kStore) return nullptr;
    std::function<Expr(const Expr&)> rw = [&](const Expr& e) -> Expr {
      bool changed = false;
      std::vector<Expr> args;
      args.reserve(e->args.size());
      for (const Expr& a : e->args) {
        Expr r = rw(a);
        changed = changed || (r != a);
        args.push_back(std::move(r));
      }
      if (e->kind == ra::ExprKind::kLoad && e->name == from) {
        ra::ExprNode n = *e;
        n.name = to;
        n.args = std::move(args);
        return std::make_shared<const ra::ExprNode>(std::move(n));
      }
      if (!changed) return e;
      ra::ExprNode n = *e;
      n.args = std::move(args);
      return std::make_shared<const ra::ExprNode>(std::move(n));
    };
    Expr v = rw(t->value);
    if (v == t->value) return nullptr;
    return ilir::make_store(t->buffer, t->indices, v);
  });
}

}  // namespace

LoweredModel lower(const ra::Model& model, const ra::Schedule& schedule) {
  ra::verify_or_throw(model);
  ra::validate_schedule(model, schedule);

  const OpRef body = model.recursion->recursion_body;
  const std::string out_name = model.recursion->placeholder->name;
  const std::int64_t H = model.state_width();

  // Split the recursion body into branches.
  OpRef leaf_root, internal_root;
  if (body->tag == ra::OpTag::kIfThenElse) {
    leaf_root = body->then_op;
    internal_root = body->else_op;
  } else {
    internal_root = body;  // e.g. DAG-RNN: one formula covers leaves
  }
  const std::vector<OpRef> leaf_chain =
      leaf_root ? branch_chain(leaf_root) : std::vector<OpRef>{};
  const std::vector<OpRef> internal_chain = branch_chain(internal_root);

  LoweredModel lm;
  lm.output = out_name;
  lm.lin_spec.kind = model.kind;
  lm.lin_spec.max_children = model.max_children;

  ilir::Program& prog = lm.program;
  prog.name = model.name;

  // -- buffers and named dimensions ------------------------------------------
  prog.dim_extents.emplace_back("d_node", ra::var("N"));
  prog.dim_extents.emplace_back("d_hidden", ra::imm(H));
  prog.dim_extents.emplace_back("d_batch", ra::var("max_batch_size"));
  prog.dim_extents.emplace_back("d_all_batches",
                                ra::var("num_internal_batches"));
  std::set<std::int64_t> widths;
  auto add_width = [&](std::int64_t w) {
    if (w != H && widths.insert(w).second)
      prog.dim_extents.emplace_back("d_w" + std::to_string(w), ra::imm(w));
  };

  for (const OpRef& op : model.topo_ops()) {
    if (op->tag == ra::OpTag::kInput) {
      ilir::Buffer b;
      b.name = op->name;
      for (auto d : op->input_shape) b.shape.push_back(ra::imm(d));
      prog.buffers.push_back(std::move(b));
    }
  }
  // The recursion result (the materialized placeholder).
  {
    ilir::Buffer b;
    b.name = out_name;
    b.dims = {"d_node", "d_hidden"};
    prog.buffers.push_back(std::move(b));
  }
  // Temporaries: every non-final chain op gets a (N, width) buffer.
  auto add_temporaries = [&](const std::vector<OpRef>& chain) {
    for (std::size_t c = 0; c + 1 < chain.size(); ++c) {
      const OpRef& op = chain[c];
      add_width(op->inner_elems());
      ilir::Buffer b;
      b.name = op->name;
      b.dims = {"d_node", width_dim(op->inner_elems(), H)};
      prog.buffers.push_back(std::move(b));
      lm.temporaries.push_back(op->name);
    }
  };
  add_temporaries(leaf_chain);
  add_temporaries(internal_chain);

  // Linearizer arrays the loop structure reads (batch descriptors or the
  // topological order) are declared as integer buffers with symbolic
  // shapes: the runtime binds them from the LinearizedBatch before
  // execution, and the static verifier checks them like any other buffer
  // instead of treating their loads as references to undeclared names.
  auto add_int_buffer = [&](const std::string& name, Expr extent) {
    ilir::Buffer b;
    b.name = name;
    b.shape = {std::move(extent)};
    b.dtype = ra::DType::kInt;
    prog.buffers.push_back(std::move(b));
  };
  if (schedule.dynamic_batching) {
    add_int_buffer("batch_begin", ra::var("num_batches"));
    add_int_buffer("batch_length", ra::var("num_batches"));
  } else {
    add_int_buffer("exec_order", ra::var("N"));
  }

  // Free runtime scalars the body and shapes may reference without an
  // enclosing binding; the engine binds them per inference.
  prog.params = {"N",           "num_leaves",          "first_leaf_id",
                 "num_batches", "num_internal_batches", "max_batch_size"};

  // -- branch bodies ----------------------------------------------------------
  Stmt internal_body = emit_chain(internal_chain, out_name, H);
  internal_body =
      rename_refs(internal_body, internal_chain.back()->name, out_name);

  Stmt leaf_body;
  Stmt hoist_pre;  // node-independent precompute, emitted before the loops
  if (!leaf_chain.empty()) {
    // §4.3: hoist node-independent leaf computation out of the recursion.
    const OpRef& leaf_final = leaf_chain.back();
    const Expr leaf_expr = leaf_final->body;
    const bool node_indep = leaf_chain.size() == 1 &&
                            !ra::uses_var(leaf_expr, "n") &&
                            !ra::has_structure_access(leaf_expr);
    if (node_indep && leaf_expr->kind == ra::ExprKind::kFloatImm &&
        leaf_expr->fimm == 0.0) {
      lm.leaf_hoist = LeafHoist::kZeroInit;
      leaf_body = ilir::make_seq(
          {ilir::make_comment(
               "constant propagation: uniform zero leaf state"),
           ilir::make_for(
               "i", ra::imm(0), ra::imm(H),
               ilir::make_store(out_name, {ra::var("node"), ra::var("i")},
                                ra::fimm(0.0)),
               ilir::ForKind::kSerial, false, false, "d_hidden")});
    } else if (node_indep) {
      lm.leaf_hoist = LeafHoist::kHoisted;
      ilir::Buffer hb;
      hb.name = "hoisted_leaf";
      hb.dims = {"d_hidden"};
      prog.buffers.push_back(std::move(hb));
      hoist_pre = ilir::make_seq(
          {ilir::make_comment("hoisted node-independent leaf computation"),
           ilir::make_for("i", ra::imm(0), ra::imm(H),
                          ilir::make_store("hoisted_leaf", {ra::var("i")},
                                           leaf_expr),
                          ilir::ForKind::kSerial, false, false, "d_hidden")});
      leaf_body = ilir::make_for(
          "i", ra::imm(0), ra::imm(H),
          ilir::make_store(out_name, {ra::var("node"), ra::var("i")},
                           ra::load("hoisted_leaf", {ra::var("i")})),
          ilir::ForKind::kSerial, false, false, "d_hidden");
    } else {
      leaf_body = emit_chain(leaf_chain, out_name, H);
      leaf_body = rename_refs(leaf_body, leaf_chain.back()->name, out_name);
    }
  }

  // -- loop structure ---------------------------------------------------------
  std::vector<Stmt> top;
  if (hoist_pre) top.push_back(hoist_pre);

  const bool has_branches = static_cast<bool>(leaf_body);
  if (schedule.dynamic_batching && schedule.specialize_leaves &&
      has_branches) {
    // Specialized form (Listing 2): separate leaf / internal nests.
    top.push_back(ilir::make_comment("leaf batch (specialized)"));
    top.push_back(ilir::make_for(
        "n_idx", ra::imm(0), ra::var("num_leaves"),
        ilir::make_let("node",
                       ra::add(ra::var("first_leaf_id"), ra::var("n_idx")),
                       leaf_body, "d_node"),
        ilir::ForKind::kParallel, false, true, "d_batch"));
    top.push_back(
        ilir::make_comment("internal batches (dynamic batching)"));
    const Expr b1 = ra::add(ra::var("b_idx"), ra::imm(1));
    top.push_back(ilir::make_for(
        "b_idx", ra::imm(0), ra::var("num_internal_batches"),
        ilir::make_for(
            "n_idx", ra::imm(0), ra::load("batch_length", {b1}),
            ilir::make_let(
                "node",
                ra::add(ra::load("batch_begin", {b1}), ra::var("n_idx")),
                internal_body, "d_node"),
            ilir::ForKind::kParallel, false, true, "d_batch"),
        ilir::ForKind::kSerial, true, false, "d_all_batches"));
  } else if (schedule.dynamic_batching) {
    // Unspecialized (or single-formula) form: one nest over all batches,
    // with a conditional operator when the model has branches (§5.2).
    Stmt node_body =
        has_branches
            ? ilir::make_if(ra::is_leaf(ra::var("node")), leaf_body,
                            internal_body)
            : internal_body;
    top.push_back(ilir::make_comment(
        has_branches ? "all batches; conditional operator on leaf check"
                     : "all batches (single-formula model)"));
    top.push_back(ilir::make_for(
        "b_idx", ra::imm(0), ra::var("num_batches"),
        ilir::make_for(
            "n_idx", ra::imm(0),
            ra::load("batch_length", {ra::var("b_idx")}),
            ilir::make_let(
                "node",
                ra::add(ra::load("batch_begin", {ra::var("b_idx")}),
                        ra::var("n_idx")),
                node_body, "d_node"),
            ilir::ForKind::kParallel, false, true, "d_batch"),
        ilir::ForKind::kSerial, true, false, "d_all_batches"));
  } else {
    // No dynamic batching: iterate nodes in topological order.
    Stmt node_body =
        has_branches
            ? ilir::make_if(ra::is_leaf(ra::var("node")), leaf_body,
                            internal_body)
            : internal_body;
    top.push_back(
        ilir::make_comment("per-node execution (no dynamic batching)"));
    top.push_back(ilir::make_for(
        "ord_idx", ra::imm(0), ra::var("N"),
        ilir::make_let("node", ra::load("exec_order", {ra::var("ord_idx")}),
                       node_body, "d_node"),
        ilir::ForKind::kSerial, true, false, "d_node"));
  }

  prog.body = ilir::make_seq(std::move(top));
  ilir::infer_bounds(prog);
  ilir::check_named_dims(prog);
  return lm;
}

}  // namespace cortex::lowering
