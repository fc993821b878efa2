// models::cell_from_ra: derives the cell program every engine runs from a
// model's RA definition, one cell op per recognized RA operator.

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "models/model_zoo.hpp"

namespace cortex::models {

namespace {

using ra::ComputePattern;
using ra::Expr;
using ra::OpRef;
using ra::OpTag;

/// The operators a branch computes: every compute op reachable from
/// `root` through operands, in creation order (ra::Op::seq) — the order
/// the model's author wrote them, which is the cell's execution order.
std::vector<OpRef> branch_ops(const std::string& model, const OpRef& root) {
  std::vector<OpRef> ops;
  std::set<const ra::Op*> seen;
  std::vector<OpRef> stack = {root};
  while (!stack.empty()) {
    OpRef op = stack.back();
    stack.pop_back();
    if (op->tag == OpTag::kInput || op->tag == OpTag::kPlaceholder ||
        !seen.insert(op.get()).second)
      continue;
    CORTEX_CHECK(op->tag == OpTag::kCompute)
        << "cell_from_ra(" << model << "): operator " << op->name
        << " is not a compute operator; only the body's top-level "
           "if_then_else(is_leaf) may branch";
    ops.push_back(op);
    for (const OpRef& in : op->inputs) stack.push_back(in);
  }
  std::sort(ops.begin(), ops.end(),
            [](const OpRef& a, const OpRef& b) { return a->seq < b->seq; });
  return ops;
}

/// An eltwise body with each load of a per-node operand, op[n, i],
/// replaced by the cell variable naming that operand (e0, e1, ... in
/// operand order); loads of input tensors stay parameter loads.
Expr eltwise_expr(const ra::Op& op, const std::vector<std::string>& operands,
                  const Expr& e) {
  if (e->kind == ra::ExprKind::kLoad) {
    const auto it = std::find(operands.begin(), operands.end(), e->name);
    if (it == operands.end()) return e;
    CORTEX_CHECK(e->args.size() == 2 &&
                 ra::struct_equal(e->args[0], ra::var("n")) &&
                 ra::struct_equal(e->args[1], ra::var("i")))
        << "eltwise operator " << op.name << " reads " << e->name
        << " at an index other than [n, i]";
    return ra::var("e" + std::to_string(it - operands.begin()));
  }
  bool changed = false;
  std::vector<Expr> args;
  args.reserve(e->args.size());
  for (const Expr& a : e->args) {
    args.push_back(eltwise_expr(op, operands, a));
    changed = changed || args.back() != a;
  }
  if (!changed) return e;
  // Through the factories, so a node's dtype follows its new operands
  // (the cell variables are index-typed, like every ra::var).
  if (e->kind == ra::ExprKind::kBinary)
    return ra::binary(e->bin, args[0], args[1]);
  if (e->kind == ra::ExprKind::kSelect)
    return ra::select(args[0], args[1], args[2]);
  ra::ExprNode n = *e;
  n.args = std::move(args);
  return std::make_shared<const ra::ExprNode>(std::move(n));
}

/// Appends the cell op(s) computing `op` into register `out`.
void translate(const std::string& model, const ra::Op& op, std::string out,
               std::vector<CellOp>& cell_ops) {
  CellOp c;
  c.out = std::move(out);
  c.width = op.inner_elems();
  switch (op.pattern) {
    case ComputePattern::kEmbedLookup:
      c.kind = CellOpKind::kLeafEmbed;
      c.param = op.inputs[0]->name;
      break;
    case ComputePattern::kChildRead:
      c.kind = CellOpKind::kSliceChild;
      c.child = static_cast<int>(op.child_index);
      c.offset = op.child_offset;
      break;
    case ComputePattern::kChildSum:
      c.kind = CellOpKind::kChildSum;
      break;
    case ComputePattern::kMatVec:
      c.kind = CellOpKind::kMatVec;
      c.param = op.inputs[0]->name;
      c.ins = {op.inputs[1]->name};
      break;
    case ComputePattern::kConstInit:
      c.kind = CellOpKind::kLeafConst;
      c.constant = op.body->fimm;
      break;
    case ComputePattern::kEltwise:
      c.kind = CellOpKind::kEltwise;
      for (const OpRef& in : op.inputs)
        if (in->tag != OpTag::kInput) c.ins.push_back(in->name);
      c.expr = eltwise_expr(op, c.ins, op.body);
      break;
    case ComputePattern::kConcat:
      c.kind = CellOpKind::kConcat2;
      c.ins = {op.inputs[0]->name};
      if (op.inputs.size() == 2) {
        c.ins.push_back(op.inputs[1]->name);
      } else {
        // [a ; 0]: the zero tail is a constant register of its own.
        CellOp zeros;
        zeros.kind = CellOpKind::kLeafConst;
        zeros.out = op.name + "_zeros";
        zeros.width = c.width - op.inputs[0]->inner_elems();
        c.ins.push_back(zeros.out);
        cell_ops.push_back(std::move(zeros));
      }
      break;
    case ComputePattern::kNodeMatVec:
      c.kind = CellOpKind::kNodeMatVec;
      c.ins = {op.inputs[0]->name, op.inputs[1]->name};
      break;
    case ComputePattern::kMatStack2:
      c.kind = CellOpKind::kMatStack2;
      c.ins = {op.inputs[0]->name, op.inputs[1]->name};
      c.param = op.inputs[2]->name;
      break;
    case ComputePattern::kOpaque:
      CORTEX_CHECK(false) << "cell_from_ra(" << model << "): operator "
                          << op.name
                          << " is an opaque compute with no cell op; build "
                             "it with a pattern constructor (ra/op.hpp)";
  }
  cell_ops.push_back(std::move(c));
}

/// The cell program of one branch. Its last op writes the node state,
/// into register `state` — the same register in the leaf and internal
/// programs.
std::vector<CellOp> branch_program(const std::string& model,
                                   const OpRef& root,
                                   const std::string& state) {
  std::vector<CellOp> cell_ops;
  for (const OpRef& op : branch_ops(model, root))
    translate(model, *op, op == root ? state : op->name, cell_ops);
  return cell_ops;
}

}  // namespace

CellProgram cell_from_ra(const ra::Model& model) {
  const OpRef& body = model.recursion->recursion_body;
  CellProgram cell;
  cell.state_width = model.state_width();
  cell.num_children = model.max_children;
  if (body->tag == OpTag::kIfThenElse) {
    CORTEX_CHECK(ra::struct_equal(body->cond, ra::is_leaf(ra::var("n"))))
        << "cell_from_ra(" << model.name << "): the body branches on "
        << ra::to_string(body->cond) << ", not isleaf(n)";
    const std::string& state = body->else_op->name;
    cell.leaf_ops = branch_program(model.name, body->then_op, state);
    cell.internal_ops = branch_program(model.name, body->else_op, state);
  } else {
    // One formula at every node (DAG-RNN): no leaf program.
    cell.internal_ops = branch_program(model.name, body, body->name);
  }
  // Each operator names its own register; only the two branches' final
  // ops share one, the state.
  std::set<std::string> defined = {cell.internal_ops.back().out};
  for (const auto* ops : {&cell.leaf_ops, &cell.internal_ops})
    for (std::size_t k = 0; k + 1 < ops->size(); ++k)
      CORTEX_CHECK(defined.insert((*ops)[k].out).second)
          << "cell_from_ra(" << model.name << "): two operators write "
          << (*ops)[k].out;
  cell.validate();
  return cell;
}

}  // namespace cortex::models
