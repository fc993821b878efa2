#include "ilir/ilir.hpp"

#include <functional>
#include <sstream>

namespace cortex::ilir {

namespace {
Stmt make(StmtNode n) { return std::make_shared<const StmtNode>(std::move(n)); }
}  // namespace

std::int64_t Buffer::const_bytes() const {
  std::int64_t n = 1;
  for (const Expr& e : shape) {
    if (e->kind != ra::ExprKind::kIntImm) return -1;
    n *= e->iimm;
  }
  return n * static_cast<std::int64_t>(
                 dtype == ra::DType::kFloat ? sizeof(float)
                                            : sizeof(std::int32_t));
}

Stmt make_for(std::string var, Expr min, Expr extent, Stmt body,
              ForKind fkind, bool carries_dependence, bool is_node_loop,
              std::string dim) {
  CORTEX_CHECK(body != nullptr) << "for " << var << ": null body";
  StmtNode n{StmtKind::kFor};
  n.var = std::move(var);
  n.min = std::move(min);
  n.extent = std::move(extent);
  n.fkind = fkind;
  n.carries_dependence = carries_dependence;
  n.is_node_loop = is_node_loop;
  n.dim = std::move(dim);
  n.body = std::move(body);
  return make(std::move(n));
}

Stmt make_let(std::string var, Expr value, Stmt body, std::string dim) {
  CORTEX_CHECK(value && body) << "let " << var << ": null value/body";
  StmtNode n{StmtKind::kLet};
  n.var = std::move(var);
  n.value = std::move(value);
  n.dim = std::move(dim);
  n.body = std::move(body);
  return make(std::move(n));
}

Stmt make_store(std::string buffer, std::vector<Expr> indices, Expr value) {
  CORTEX_CHECK(value != nullptr) << "store to " << buffer << ": null value";
  StmtNode n{StmtKind::kStore};
  n.buffer = std::move(buffer);
  n.indices = std::move(indices);
  n.value = std::move(value);
  return make(std::move(n));
}

Stmt make_seq(std::vector<Stmt> stmts) {
  // Flatten nested sequences so passes see a canonical form.
  std::vector<Stmt> flat;
  for (Stmt& s : stmts) {
    CORTEX_CHECK(s != nullptr) << "null stmt in seq";
    if (s->kind == StmtKind::kSeq)
      flat.insert(flat.end(), s->stmts.begin(), s->stmts.end());
    else
      flat.push_back(std::move(s));
  }
  if (flat.size() == 1) return flat.front();
  StmtNode n{StmtKind::kSeq};
  n.stmts = std::move(flat);
  return make(std::move(n));
}

Stmt make_if(Expr cond, Stmt then_s, Stmt else_s) {
  CORTEX_CHECK(cond && then_s) << "if: null cond/then";
  StmtNode n{StmtKind::kIf};
  n.cond = std::move(cond);
  n.then_s = std::move(then_s);
  n.else_s = std::move(else_s);
  return make(std::move(n));
}

Stmt make_barrier() { return make(StmtNode{StmtKind::kBarrier}); }

Stmt make_comment(std::string text) {
  StmtNode n{StmtKind::kComment};
  n.text = std::move(text);
  return make(std::move(n));
}

const Buffer* Program::find_buffer(const std::string& bname) const {
  for (const Buffer& b : buffers)
    if (b.name == bname) return &b;
  return nullptr;
}

Buffer* Program::find_buffer(const std::string& bname) {
  for (Buffer& b : buffers)
    if (b.name == bname) return &b;
  return nullptr;
}

namespace {
void print(const Stmt& s, std::ostringstream& os, int ind) {
  const std::string pad(static_cast<std::size_t>(ind) * 2, ' ');
  switch (s->kind) {
    case StmtKind::kFor: {
      os << pad << "for " << s->var << " = " << ra::to_string(s->min) << ":"
         << ra::to_string(s->extent);
      if (s->fkind == ForKind::kParallel) os << " parallel";
      if (s->fkind == ForKind::kVectorized) os << " vectorized";
      if (s->fkind == ForKind::kUnrolled) os << " unrolled";
      if (s->carries_dependence) os << "  # carries dependence";
      if (s->is_node_loop) os << "  # node loop";
      os << ":\n";
      print(s->body, os, ind + 1);
      break;
    }
    case StmtKind::kLet:
      os << pad << "let " << s->var << " = " << ra::to_string(s->value)
         << "\n";
      print(s->body, os, ind);
      break;
    case StmtKind::kStore: {
      os << pad << s->buffer << "[";
      for (std::size_t i = 0; i < s->indices.size(); ++i)
        os << (i ? "," : "") << ra::to_string(s->indices[i]);
      os << "] = " << ra::to_string(s->value) << "\n";
      break;
    }
    case StmtKind::kSeq:
      for (const Stmt& t : s->stmts) print(t, os, ind);
      break;
    case StmtKind::kIf:
      os << pad << "if " << ra::to_string(s->cond) << ":\n";
      print(s->then_s, os, ind + 1);
      if (s->else_s) {
        os << pad << "else:\n";
        print(s->else_s, os, ind + 1);
      }
      break;
    case StmtKind::kBarrier:
      os << pad << "global_barrier()\n";
      break;
    case StmtKind::kComment:
      os << pad << "# " << s->text << "\n";
      break;
  }
}
}  // namespace

std::string to_string(const Stmt& s, int indent) {
  CORTEX_CHECK(s != nullptr) << "to_string(null stmt)";
  std::ostringstream os;
  print(s, os, indent);
  return os.str();
}

std::string to_string(const Program& p) {
  std::ostringstream os;
  os << "program " << p.name << ":\n";
  for (const Buffer& b : p.buffers) {
    os << "  buffer " << b.name << "(";
    for (std::size_t i = 0; i < b.shape.size(); ++i)
      os << (i ? "," : "") << ra::to_string(b.shape[i]);
    os << ")";
    if (!b.dims.empty()) {
      os << " dims=[";
      for (std::size_t i = 0; i < b.dims.size(); ++i)
        os << (i ? "," : "") << b.dims[i];
      os << "]";
    }
    os << (b.scope == MemScope::kGlobal
               ? " global"
               : (b.scope == MemScope::kShared ? " shared" : " register"));
    os << "\n";
  }
  os << to_string(p.body, 1);
  return os.str();
}

bool struct_equal(const Stmt& a, const Stmt& b) {
  if (a == b) return true;
  if (!a || !b) return false;
  if (a->kind != b->kind || a->var != b->var || a->buffer != b->buffer ||
      a->fkind != b->fkind || a->text != b->text || a->dim != b->dim ||
      a->carries_dependence != b->carries_dependence ||
      a->is_node_loop != b->is_node_loop)
    return false;
  auto eq = [](const Expr& x, const Expr& y) {
    return (!x && !y) || (x && y && ra::struct_equal(x, y));
  };
  if (!eq(a->min, b->min) || !eq(a->extent, b->extent) ||
      !eq(a->value, b->value) || !eq(a->cond, b->cond))
    return false;
  if (a->indices.size() != b->indices.size()) return false;
  for (std::size_t i = 0; i < a->indices.size(); ++i)
    if (!eq(a->indices[i], b->indices[i])) return false;
  auto seq = [](const Stmt& x, const Stmt& y) {
    return (!x && !y) || (x && y && struct_equal(x, y));
  };
  if (!seq(a->body, b->body) || !seq(a->then_s, b->then_s) ||
      !seq(a->else_s, b->else_s))
    return false;
  if (a->stmts.size() != b->stmts.size()) return false;
  for (std::size_t i = 0; i < a->stmts.size(); ++i)
    if (!struct_equal(a->stmts[i], b->stmts[i])) return false;
  return true;
}

namespace {
void fingerprint_opt(const Expr& e, support::FingerprintBuilder& fb) {
  if (!e) {
    fb.tag('0');
    return;
  }
  ra::fingerprint(e, fb);
}
}  // namespace

void fingerprint(const Buffer& b, support::FingerprintBuilder& fb) {
  fb.tag('B');
  fb.add_short(b.name);
  fb.count(b.shape.size());
  for (const Expr& e : b.shape) fingerprint_opt(e, fb);
  fb.count(b.dims.size());
  for (const std::string& d : b.dims) fb.add_short(d);
  fb.small(static_cast<std::uint8_t>(b.scope));
  fb.small(static_cast<std::uint8_t>(b.dtype));
}

void fingerprint(const Stmt& s, support::FingerprintBuilder& fb) {
  if (!s) {
    fb.tag('0');
    return;
  }
  fb.tag('S');
  fb.small(static_cast<std::uint8_t>(s->kind));
  switch (s->kind) {
    case StmtKind::kFor:
      fb.add_short(s->var);
      fingerprint_opt(s->min, fb);
      fingerprint_opt(s->extent, fb);
      fb.small(static_cast<std::uint8_t>(s->fkind));
      fb.add(s->carries_dependence);
      fb.add(s->is_node_loop);
      fb.add_short(s->dim);
      fingerprint(s->body, fb);
      break;
    case StmtKind::kLet:
      fb.add_short(s->var);
      fingerprint_opt(s->value, fb);
      fb.add_short(s->dim);
      fingerprint(s->body, fb);
      break;
    case StmtKind::kStore:
      fb.add_short(s->buffer);
      fb.count(s->indices.size());
      for (const Expr& e : s->indices) fingerprint_opt(e, fb);
      fingerprint_opt(s->value, fb);
      break;
    case StmtKind::kSeq:
      fb.count(s->stmts.size());
      for (const Stmt& t : s->stmts) fingerprint(t, fb);
      break;
    case StmtKind::kIf:
      fingerprint_opt(s->cond, fb);
      fingerprint(s->then_s, fb);
      fingerprint(s->else_s, fb);
      break;
    case StmtKind::kBarrier:
      break;
    case StmtKind::kComment:
      fb.add_short(s->text);
      break;
  }
}

void fingerprint(const Program& p, support::FingerprintBuilder& fb) {
  fb.tag('P');
  fb.add_short(p.name);
  fb.count(p.buffers.size());
  for (const Buffer& b : p.buffers) fingerprint(b, fb);
  fb.count(p.dim_extents.size());
  for (const auto& [name, extent] : p.dim_extents) {
    fb.add_short(name);
    fingerprint_opt(extent, fb);
  }
  fb.count(p.params.size());
  for (const std::string& s : p.params) fb.add_short(s);
  fingerprint(p.body, fb);
}

support::Fingerprint fingerprint(const Program& p) {
  support::FingerprintBuilder fb;
  fingerprint(p, fb);
  return fb.finish();
}

Stmt transform(const Stmt& s, const std::function<Stmt(const Stmt&)>& f) {
  CORTEX_CHECK(s != nullptr) << "transform(null)";
  StmtNode n = *s;
  bool changed = false;
  auto rec = [&](const Stmt& c) -> Stmt {
    if (!c) return c;
    Stmt r = transform(c, f);
    changed = changed || (r != c);
    return r;
  };
  n.body = rec(s->body);
  n.then_s = rec(s->then_s);
  n.else_s = rec(s->else_s);
  for (std::size_t i = 0; i < n.stmts.size(); ++i) {
    Stmt r = transform(s->stmts[i], f);
    changed = changed || (r != s->stmts[i]);
    n.stmts[i] = r;
  }
  Stmt rebuilt = changed ? make(std::move(n)) : s;
  Stmt replaced = f(rebuilt);
  return replaced ? replaced : rebuilt;
}

void visit(const Stmt& s, const std::function<void(const Stmt&)>& f) {
  if (!s) return;
  f(s);
  visit(s->body, f);
  visit(s->then_s, f);
  visit(s->else_s, f);
  for (const Stmt& t : s->stmts) visit(t, f);
}

void visit_exprs(const Stmt& s, const std::function<void(const Expr&)>& f) {
  visit(s, [&](const Stmt& t) {
    auto on = [&](const Expr& e) {
      if (e) f(e);
    };
    on(t->min);
    on(t->extent);
    on(t->value);
    on(t->cond);
    for (const Expr& e : t->indices) on(e);
  });
}

}  // namespace cortex::ilir
