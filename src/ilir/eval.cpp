#include "ilir/eval.hpp"

#include <cmath>

#include "tensor/activations.hpp"

namespace cortex::ilir {

Binding Binding::tensor(Tensor& t) {
  Binding b;
  b.dtype = ra::DType::kFloat;
  b.f32 = t.data();
  b.shape = t.shape().dims();
  return b;
}

Binding Binding::ints(const std::vector<std::int32_t>& v) {
  Binding b;
  b.dtype = ra::DType::kInt;
  b.i32 = v.data();
  b.shape = {static_cast<std::int64_t>(v.size())};
  return b;
}

Evaluator::Evaluator(const Program& program,
                     const linearizer::Linearized& lin)
    : program_(program), lin_(lin) {}

void Evaluator::bind(const std::string& name, Binding b) {
  buffers_[name] = std::move(b);
}

void Evaluator::bind_scalar(const std::string& name, std::int64_t v) {
  vars_[name] = v;
}

void Evaluator::bind_structure() {
  bind("words", Binding::ints(lin_.word));
  bind("batch_begin", Binding::ints(lin_.batch_begin));
  bind("batch_length", Binding::ints(lin_.batch_length));
  bind("child_offsets", Binding::ints(lin_.child_offsets));
  bind("child_ids", Binding::ints(lin_.child_ids));
  exec_order_ = linearizer::node_order(lin_);
  bind("exec_order", Binding::ints(exec_order_));
  bind_scalar("N", lin_.num_nodes);
  bind_scalar("num_leaves", lin_.num_leaves);
  bind_scalar("first_leaf_id", lin_.first_leaf_id);
  bind_scalar("num_batches", lin_.num_batches());
  bind_scalar("num_internal_batches", lin_.num_batches() - 1);
  bind_scalar("max_batch_size", lin_.max_batch_length());
}

std::int64_t Evaluator::flat_index(const Binding& b,
                                   const std::vector<Expr>& idx) {
  CORTEX_CHECK(idx.size() == b.shape.size() ||
               (b.shape.size() == 1 && idx.size() == 1))
      << "index rank " << idx.size() << " vs buffer rank " << b.shape.size();
  std::int64_t flat = 0;
  for (std::size_t k = 0; k < idx.size(); ++k) {
    const std::int64_t i = eval(idx[k]).as_i();
    CORTEX_CHECK(i >= 0 && i < b.shape[k])
        << "index " << i << " out of bounds " << b.shape[k] << " (dim " << k
        << ")";
    flat = flat * b.shape[k] + i;
  }
  return flat;
}

Evaluator::Value Evaluator::eval(const Expr& e) {
  using ra::ExprKind;
  switch (e->kind) {
    case ExprKind::kFloatImm:
      return {e->fimm, 0, false};
    case ExprKind::kIntImm:
      return {0, e->iimm, true};
    case ExprKind::kVar: {
      auto it = vars_.find(e->name);
      CORTEX_CHECK(it != vars_.end()) << "unbound variable " << e->name;
      return {0, it->second, true};
    }
    case ExprKind::kBinary: {
      const Value a = eval(e->args[0]);
      const Value b = eval(e->args[1]);
      const bool ints = a.is_int && b.is_int;
      switch (e->bin) {
        case ra::BinOp::kAdd:
          return ints ? Value{0, a.i + b.i, true}
                      : Value{a.as_f() + b.as_f(), 0, false};
        case ra::BinOp::kSub:
          return ints ? Value{0, a.i - b.i, true}
                      : Value{a.as_f() - b.as_f(), 0, false};
        case ra::BinOp::kMul:
          return ints ? Value{0, a.i * b.i, true}
                      : Value{a.as_f() * b.as_f(), 0, false};
        case ra::BinOp::kDiv:
          if (ints) {
            CORTEX_CHECK(b.i != 0) << "integer division by zero";
            return {0, a.i / b.i, true};
          }
          return {a.as_f() / b.as_f(), 0, false};
        case ra::BinOp::kMax:
          return ints ? Value{0, std::max(a.i, b.i), true}
                      : Value{std::max(a.as_f(), b.as_f()), 0, false};
        case ra::BinOp::kMin:
          return ints ? Value{0, std::min(a.i, b.i), true}
                      : Value{std::min(a.as_f(), b.as_f()), 0, false};
        case ra::BinOp::kLt:
          return {0, a.as_f() < b.as_f() ? 1 : 0, true};
        case ra::BinOp::kGe:
          return {0, a.as_f() >= b.as_f() ? 1 : 0, true};
        case ra::BinOp::kEq:
          return {0, a.as_f() == b.as_f() ? 1 : 0, true};
      }
      CORTEX_CHECK(false) << "unknown binop";
      return {};
    }
    case ExprKind::kCall: {
      const double x = eval(e->args[0]).as_f();
      switch (e->fn) {
        case ra::CallFn::kTanh:
          return {kernels::tanh_rational(static_cast<float>(x)), 0, false};
        case ra::CallFn::kSigmoid:
          return {kernels::sigmoid_rational(static_cast<float>(x)), 0,
                  false};
        case ra::CallFn::kRelu:
          return {x > 0 ? x : 0, 0, false};
        case ra::CallFn::kExp:
          return {std::exp(x), 0, false};
      }
      CORTEX_CHECK(false) << "unknown call";
      return {};
    }
    case ExprKind::kLoad: {
      auto it = buffers_.find(e->name);
      CORTEX_CHECK(it != buffers_.end()) << "unbound buffer " << e->name;
      const Binding& b = it->second;
      const std::int64_t flat = flat_index(b, e->args);
      if (b.dtype == ra::DType::kFloat)
        return {static_cast<double>(b.f32[flat]), 0, false};
      return {0, static_cast<std::int64_t>(b.i32[flat]), true};
    }
    case ExprKind::kSum: {
      const std::int64_t extent = eval(e->args[0]).as_i();
      double acc = 0.0;
      const bool had = vars_.count(e->name) > 0;
      const std::int64_t prev = had ? vars_[e->name] : 0;
      for (std::int64_t k = 0; k < extent; ++k) {
        vars_[e->name] = k;
        acc += eval(e->args[1]).as_f();
      }
      if (had)
        vars_[e->name] = prev;
      else
        vars_.erase(e->name);
      return {acc, 0, false};
    }
    case ExprKind::kChild: {
      const std::int64_t n = eval(e->args[0]).as_i();
      const std::int64_t k = eval(e->args[1]).as_i();
      const auto off0 = lin_.child_offsets[static_cast<std::size_t>(n)];
      const auto off1 = lin_.child_offsets[static_cast<std::size_t>(n) + 1];
      CORTEX_CHECK(k >= 0 && off0 + k < off1)
          << "child(" << n << "," << k << ") out of range";
      return {0, lin_.child_ids[static_cast<std::size_t>(off0 + k)], true};
    }
    case ExprKind::kWordOf: {
      const std::int64_t n = eval(e->args[0]).as_i();
      return {0, lin_.word[static_cast<std::size_t>(n)], true};
    }
    case ExprKind::kNumChildren: {
      const std::int64_t n = eval(e->args[0]).as_i();
      return {0,
              lin_.child_offsets[static_cast<std::size_t>(n) + 1] -
                  lin_.child_offsets[static_cast<std::size_t>(n)],
              true};
    }
    case ExprKind::kIsLeaf: {
      // Appendix B: numbering makes this a single comparison.
      const std::int64_t n = eval(e->args[0]).as_i();
      return {0, n >= lin_.first_leaf_id ? 1 : 0, true};
    }
    case ExprKind::kSelect: {
      return eval(e->args[0]).as_i() != 0 ? eval(e->args[1])
                                          : eval(e->args[2]);
    }
  }
  CORTEX_CHECK(false) << "unknown expr kind";
  return {};
}

void Evaluator::exec(const Stmt& s) {
  switch (s->kind) {
    case StmtKind::kFor: {
      const std::int64_t min = eval(s->min).as_i();
      const std::int64_t extent = eval(s->extent).as_i();
      const bool had = vars_.count(s->var) > 0;
      const std::int64_t prev = had ? vars_[s->var] : 0;
      for (std::int64_t v = min; v < min + extent; ++v) {
        vars_[s->var] = v;
        exec(s->body);
      }
      if (had)
        vars_[s->var] = prev;
      else
        vars_.erase(s->var);
      break;
    }
    case StmtKind::kLet: {
      const Value v = eval(s->value);
      const bool had = vars_.count(s->var) > 0;
      const std::int64_t prev = had ? vars_[s->var] : 0;
      vars_[s->var] = v.as_i();
      exec(s->body);
      if (had)
        vars_[s->var] = prev;
      else
        vars_.erase(s->var);
      break;
    }
    case StmtKind::kStore: {
      auto it = buffers_.find(s->buffer);
      CORTEX_CHECK(it != buffers_.end())
          << "store to unbound buffer " << s->buffer;
      Binding& b = it->second;
      CORTEX_CHECK(b.dtype == ra::DType::kFloat && b.f32 != nullptr)
          << "store target " << s->buffer << " must be a float buffer";
      const std::int64_t flat = flat_index(b, s->indices);
      b.f32[flat] = static_cast<float>(eval(s->value).as_f());
      break;
    }
    case StmtKind::kSeq:
      for (const Stmt& t : s->stmts) exec(t);
      break;
    case StmtKind::kIf:
      if (eval(s->cond).as_i() != 0)
        exec(s->then_s);
      else if (s->else_s)
        exec(s->else_s);
      break;
    case StmtKind::kBarrier:
      ++barriers_;
      break;
    case StmtKind::kComment:
      break;
  }
}

void Evaluator::run() {
  barriers_ = 0;
  CORTEX_CHECK(program_.body != nullptr) << "program has no body";
  exec(program_.body);
}

}  // namespace cortex::ilir
