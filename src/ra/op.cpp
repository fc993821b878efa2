#include "ra/op.hpp"

#include <atomic>
#include <sstream>
#include <unordered_map>

namespace cortex::ra {

namespace {
/// A fresh operator carrying the next creation index (Op::seq).
std::shared_ptr<Op> new_op() {
  static std::atomic<std::uint64_t> next{0};
  auto op = std::make_shared<Op>();
  op->seq = next.fetch_add(1);
  return op;
}

Expr vn() { return var("n"); }
Expr vi() { return var("i"); }
}  // namespace

bool Op::per_node() const {
  return !axes.empty() && axes.front() == "n";
}

std::int64_t Op::inner_elems() const {
  CORTEX_CHECK(per_node()) << "inner_elems on non-per-node op " << name;
  std::int64_t prod = 1;
  for (std::size_t i = 1; i < extents.size(); ++i) {
    CORTEX_CHECK(extents[i]->kind == ExprKind::kIntImm)
        << "non-constant inner extent on op " << name;
    prod *= extents[i]->iimm;
  }
  return prod;
}

OpRef input_tensor(std::string name, std::vector<std::int64_t> shape) {
  auto op = new_op();
  op->tag = OpTag::kInput;
  op->name = std::move(name);
  op->input_shape = std::move(shape);
  return op;
}

OpRef placeholder(std::string name, std::vector<std::int64_t> inner_shape) {
  auto op = new_op();
  op->tag = OpTag::kPlaceholder;
  op->name = std::move(name);
  op->input_shape = std::move(inner_shape);
  op->axes = {"n", "i"};
  std::int64_t prod = 1;
  for (auto d : op->input_shape) prod *= d;
  op->extents = {var("N"), imm(prod)};
  return op;
}

OpRef compute(std::string name, std::vector<std::string> axes,
              std::vector<Expr> extents, Expr body,
              std::vector<OpRef> inputs) {
  CORTEX_CHECK(axes.size() == extents.size())
      << "compute " << name << ": axes/extents size mismatch";
  CORTEX_CHECK(body != nullptr) << "compute " << name << ": null body";
  auto op = new_op();
  op->tag = OpTag::kCompute;
  op->pattern = ComputePattern::kOpaque;
  op->name = std::move(name);
  op->axes = std::move(axes);
  op->extents = std::move(extents);
  op->body = std::move(body);
  op->inputs = std::move(inputs);
  return op;
}

OpRef embed_lookup(std::string name, OpRef table, std::int64_t width) {
  CORTEX_CHECK(table && table->tag == OpTag::kInput &&
               table->input_shape.size() == 2 &&
               table->input_shape[1] == width)
      << "embed_lookup needs an input table of shape (V," << width << ")";
  Expr body = load(table->name, {word_of(var("n")), var("i")});
  OpRef op = compute(std::move(name), {"n", "i"}, {var("N"), imm(width)},
                     std::move(body), {table});
  op->pattern = ComputePattern::kEmbedLookup;
  return op;
}

OpRef child_read(std::string name, OpRef ph, std::int64_t k,
                 std::int64_t width) {
  return child_read_slice(std::move(name), std::move(ph), k, 0, width);
}

OpRef child_read_slice(std::string name, OpRef ph, std::int64_t k,
                       std::int64_t offset, std::int64_t width) {
  CORTEX_CHECK(ph && ph->tag == OpTag::kPlaceholder)
      << "child_read must read a recursion placeholder";
  CORTEX_CHECK(offset >= 0) << "negative slice offset";
  Expr idx = offset == 0 ? var("i") : add(var("i"), imm(offset));
  Expr body = load(ph->name, {child(var("n"), k), std::move(idx)});
  OpRef op = compute(std::move(name), {"n", "i"}, {var("N"), imm(width)},
                     std::move(body), {ph});
  op->pattern = ComputePattern::kChildRead;
  op->child_index = k;
  op->child_offset = offset;
  return op;
}

OpRef child_sum(std::string name, OpRef ph, std::int64_t width) {
  CORTEX_CHECK(ph && ph->tag == OpTag::kPlaceholder)
      << "child_sum must read a recursion placeholder";
  // sum_{k in [0, num_children(n))} ph[child(n,k), i]
  Expr body = sum("k", num_children(var("n")),
                  load(ph->name, {child_at(var("n"), var("k")), var("i")}));
  OpRef op = compute(std::move(name), {"n", "i"}, {var("N"), imm(width)},
                     std::move(body), {ph});
  op->pattern = ComputePattern::kChildSum;
  return op;
}

OpRef matvec(std::string name, OpRef w, OpRef in) {
  CORTEX_CHECK(w && w->tag == OpTag::kInput && w->input_shape.size() == 2)
      << "matvec weight must be a 2-D input tensor";
  CORTEX_CHECK(in && in->per_node()) << "matvec input must be per-node";
  const std::int64_t m = w->input_shape[0];
  const std::int64_t k = w->input_shape[1];
  CORTEX_CHECK(in->inner_elems() == k)
      << "matvec " << name << ": W is (" << m << "," << k << ") but input "
      << in->name << " has width " << in->inner_elems();
  Expr body = sum("j", imm(k),
                  mul(load(w->name, {var("i"), var("j")}),
                      load(in->name, {var("n"), var("j")})));
  OpRef op = compute(std::move(name), {"n", "i"}, {var("N"), imm(m)},
                     std::move(body), {w, in});
  op->pattern = ComputePattern::kMatVec;
  return op;
}

OpRef eltwise(std::string name, Expr body, std::vector<OpRef> inputs,
              std::int64_t width) {
  for (const auto& in : inputs)
    CORTEX_CHECK(in != nullptr) << "eltwise " << name << ": null input";
  OpRef op = compute(std::move(name), {"n", "i"}, {var("N"), imm(width)},
                     std::move(body), std::move(inputs));
  op->pattern = ComputePattern::kEltwise;
  return op;
}

OpRef const_init(std::string name, double value, std::int64_t width) {
  OpRef op = compute(std::move(name), {"n", "i"}, {var("N"), imm(width)},
                     fimm(value), {});
  op->pattern = ComputePattern::kConstInit;
  return op;
}

namespace {
/// A kConcat operator of `width` elements: `a` first, then `tail` (an
/// expression at the element index i - |a|). The first arm's index is
/// clamped with min(i, |a|-1): the select only evaluates the taken arm,
/// so this is a semantic no-op, but it keeps the (guarded) load
/// statically in-bounds for the named-dimension checker — composite index
/// expressions are the class §5.1 exempts from direct-var checks.
OpRef concat_of(std::string name, const OpRef& a, Expr tail,
                std::int64_t width, std::vector<OpRef> inputs) {
  const std::int64_t wa = a->inner_elems();
  Expr body = select(
      lt(vi(), imm(wa)),
      load(a->name, {vn(), binary(BinOp::kMin, vi(), imm(wa - 1))}),
      std::move(tail));
  OpRef op = compute(std::move(name), {"n", "i"}, {var("N"), imm(width)},
                     std::move(body), std::move(inputs));
  op->pattern = ComputePattern::kConcat;
  return op;
}
}  // namespace

OpRef concat(std::string name, OpRef a, OpRef b) {
  CORTEX_CHECK(a && a->per_node() && b && b->per_node())
      << "concat " << name << ": operands must be per-node operators";
  const std::int64_t wa = a->inner_elems();
  Expr tail = load(b->name, {vn(), sub(vi(), imm(wa))});
  const std::int64_t width = wa + b->inner_elems();
  return concat_of(std::move(name), a, std::move(tail), width, {a, b});
}

OpRef concat(std::string name, OpRef a, std::int64_t width) {
  CORTEX_CHECK(a && a->per_node())
      << "concat " << name << ": operand must be a per-node operator";
  CORTEX_CHECK(width > a->inner_elems())
      << "concat " << name << ": width " << width
      << " leaves no zero tail after " << a->inner_elems();
  return concat_of(std::move(name), a, fimm(0.0), width, {a});
}

OpRef node_matvec(std::string name, OpRef m, OpRef v) {
  CORTEX_CHECK(m && m->per_node() && v && v->per_node())
      << "node_matvec " << name << ": operands must be per-node operators";
  const std::int64_t h = v->inner_elems();
  CORTEX_CHECK(m->inner_elems() == h * h)
      << "node_matvec " << name << ": matrix " << m->name << " has "
      << m->inner_elems() << " elements, vector " << v->name
      << " needs " << h * h;
  Expr body = sum("j", imm(h),
                  mul(load(m->name, {vn(), add(mul(vi(), imm(h)), var("j"))}),
                      load(v->name, {vn(), var("j")})));
  OpRef op = compute(std::move(name), {"n", "i"}, {var("N"), imm(h)},
                     std::move(body), {std::move(m), std::move(v)});
  op->pattern = ComputePattern::kNodeMatVec;
  return op;
}

OpRef mat_stack2(std::string name, OpRef w, OpRef m0, OpRef m1) {
  CORTEX_CHECK(w && w->tag == OpTag::kInput && w->input_shape.size() == 2 &&
               w->input_shape[1] == 2 * w->input_shape[0])
      << "mat_stack2 " << name << ": weight must be an (H, 2H) input tensor";
  const std::int64_t h = w->input_shape[0];
  CORTEX_CHECK(m0 && m0->per_node() && m0->inner_elems() == h * h && m1 &&
               m1->per_node() && m1->inner_elems() == h * h)
      << "mat_stack2 " << name << ": operands must be per-node " << h << "x"
      << h << " matrices";
  // i = r*H + c; k runs over the 2H rows of vstack(m0, m1).
  const Expr r = div(vi(), imm(h));
  const Expr c = sub(vi(), mul(div(vi(), imm(h)), imm(h)));
  const Expr k = var("k");
  Expr stacked =
      select(lt(k, imm(h)), load(m0->name, {vn(), add(mul(k, imm(h)), c)}),
             load(m1->name, {vn(), add(mul(sub(k, imm(h)), imm(h)), c)}));
  Expr body = sum("k", imm(2 * h),
                  mul(load(w->name, {r, var("k")}), std::move(stacked)));
  OpRef op = compute(std::move(name), {"n", "i"}, {var("N"), imm(h * h)},
                     std::move(body),
                     {std::move(m0), std::move(m1), std::move(w)});
  op->pattern = ComputePattern::kMatStack2;
  return op;
}

OpRef if_then_else(std::string name, Expr cond, OpRef then_op,
                   OpRef else_op) {
  CORTEX_CHECK(cond && then_op && else_op) << "if_then_else: null arg";
  CORTEX_CHECK(then_op->per_node() && else_op->per_node())
      << "if_then_else branches must be per-node operators";
  CORTEX_CHECK(then_op->inner_elems() == else_op->inner_elems())
      << "if_then_else branch widths differ";
  auto op = new_op();
  op->tag = OpTag::kIfThenElse;
  op->name = std::move(name);
  op->axes = {"n", "i"};
  op->extents = {var("N"), imm(then_op->inner_elems())};
  op->cond = std::move(cond);
  op->then_op = std::move(then_op);
  op->else_op = std::move(else_op);
  op->inputs = {op->then_op, op->else_op};
  return op;
}

OpRef recursion_op(OpRef ph, OpRef body) {
  CORTEX_CHECK(ph && ph->tag == OpTag::kPlaceholder)
      << "recursion_op needs a placeholder";
  CORTEX_CHECK(body && body->per_node()) << "recursion body must be per-node";
  auto op = new_op();
  op->tag = OpTag::kRecursion;
  op->name = ph->name + "_rec";
  op->axes = body->axes;
  op->extents = body->extents;
  op->placeholder = std::move(ph);
  op->recursion_body = std::move(body);
  op->inputs = {op->recursion_body};
  return op;
}

std::string to_string(const OpRef& op) {
  CORTEX_CHECK(op != nullptr) << "to_string(null op)";
  std::ostringstream os;
  os << op->name;
  if (op->tag == OpTag::kInput) {
    os << " = input(";
    for (std::size_t i = 0; i < op->input_shape.size(); ++i)
      os << (i ? "," : "") << op->input_shape[i];
    os << ")";
    return os.str();
  }
  os << "[";
  for (std::size_t i = 0; i < op->axes.size(); ++i)
    os << (i ? "," : "") << op->axes[i];
  os << "]";
  if (op->tag == OpTag::kPlaceholder) return os.str() + " = placeholder";
  if (op->tag == OpTag::kIfThenElse)
    return os.str() + " = if " + to_string(op->cond) + " then " +
           op->then_op->name + " else " + op->else_op->name;
  if (op->tag == OpTag::kRecursion)
    return os.str() + " = recursion(" + op->placeholder->name + " := " +
           op->recursion_body->name + ")";
  os << " = " << to_string(op->body);
  return os.str();
}

namespace {
void fingerprint_op(const OpRef& op,
                    std::unordered_map<const Op*, std::int64_t>& ids,
                    support::FingerprintBuilder& fb) {
  if (!op) {
    fb.tag('0');
    return;
  }
  const auto it = ids.find(op.get());
  if (it != ids.end()) {
    // Back-reference: the same operator object, by first-visit number.
    fb.tag('R');
    fb.add(it->second);
    return;
  }
  ids.emplace(op.get(), static_cast<std::int64_t>(ids.size()));
  fb.tag('O');
  fb.small(static_cast<std::uint8_t>(op->tag));
  fb.small(static_cast<std::uint8_t>(op->pattern));
  fb.add_short(op->name);
  fb.count(op->axes.size());
  for (const std::string& a : op->axes) fb.add_short(a);
  fb.count(op->extents.size());
  for (const Expr& e : op->extents) fingerprint(e, fb);
  fingerprint(op->body, fb);
  fb.count(op->input_shape.size());
  for (const std::int64_t d : op->input_shape) fb.add(d);
  fingerprint(op->cond, fb);
  fingerprint_op(op->then_op, ids, fb);
  fingerprint_op(op->else_op, ids, fb);
  fingerprint_op(op->placeholder, ids, fb);
  fingerprint_op(op->recursion_body, ids, fb);
  fb.count(op->inputs.size());
  for (const OpRef& in : op->inputs) fingerprint_op(in, ids, fb);
}
}  // namespace

void fingerprint(const OpRef& op, support::FingerprintBuilder& fb) {
  std::unordered_map<const Op*, std::int64_t> ids;
  fingerprint_op(op, ids, fb);
}

}  // namespace cortex::ra
