#include "ilir/verify.hpp"

#include <map>
#include <set>

#include "ilir/analysis.hpp"
#include "ilir/bounds.hpp"
#include "ilir/simplify.hpp"

namespace cortex::ilir {

namespace {

using ra::Expr;
using ra::ExprKind;
using support::Diagnostic;
using support::Severity;

/// The whole verifier state for one Program walk. One instance per
/// verify() call; all checks run in a single traversal so path strings
/// and scopes are computed once.
class Checker {
 public:
  Checker(const Program& p, const VerifyOptions& opt,
          std::vector<Diagnostic>& out)
      : p_(p), opt_(opt), diags_(out) {
    for (const Buffer& b : p.buffers) buffers_[b.name] = &b;
    for (const std::string& s : p.params) symbols_.insert(s);
    for (const std::string& s : opt.extra_symbols) symbols_.insert(s);
  }

  void run() {
    for (const Buffer& b : p_.buffers)
      if (b.shape.empty() && b.dims.empty())
        error("shape", "buffer(" + b.name + ")",
              "buffer '" + b.name +
                  "' has neither a shape nor named dimensions");
    stmt(p_.body);
  }

 private:
  // -- diagnostics -----------------------------------------------------------

  std::string path() const {
    std::string out;
    for (const std::string& seg : path_) {
      if (!out.empty()) out += "/";
      out += seg;
    }
    return out.empty() ? "<top>" : out;
  }

  void error(const std::string& code, const std::string& at,
             const std::string& message) {
    diags_.push_back({Severity::kError, code, at, message});
  }
  void error(const std::string& code, const std::string& message) {
    error(code, path(), message);
  }
  void warn(const std::string& code, const std::string& message) {
    diags_.push_back({Severity::kWarning, code, path(), message});
  }

  // -- binding environment ---------------------------------------------------

  struct Binding {
    bool has_range = false;
    Interval range{0, 0};
  };

  /// Binds `var` for the duration of `body()`; reports shadowing.
  template <typename Fn>
  void with_binding(const std::string& var, const Binding& b,
                    const char* binder, const Fn& body) {
    if (scopes_.count(var) > 0)
      error("shadow", std::string(binder) + " '" + var +
                          "' shadows an enclosing binding of the same "
                          "name in this nest");
    else if (symbols_.count(var) > 0)
      error("shadow", std::string(binder) + " '" + var +
                          "' shadows a program parameter");
    scopes_[var] = b;
    if (b.has_range) ranges_[var] = b.range;
    body();
    scopes_.erase(var);
    ranges_.erase(var);
  }

  bool is_bound(const std::string& var) const {
    return scopes_.count(var) > 0 || symbols_.count(var) > 0;
  }

  /// Interval of `e` under the current loop/let ranges, when derivable.
  std::optional<Interval> range_of(const Expr& e) const {
    return bound_of(e, ranges_);
  }

  /// Runs `fn` with ranges refined by `cond` being true (taken) or false
  /// (not taken). Handles the comparison shapes lowering emits —
  /// select(i < H, a[i], b[i - H]) concatenation/slicing — where the
  /// guarded branch is only in range *because* of the guard. Refinement
  /// only narrows variables that already have a range; symbolic
  /// conditions (isleaf(node), data-dependent) refine nothing.
  template <typename Fn>
  void with_refinement(const Expr& cond, bool taken, const Fn& fn) {
    std::vector<std::pair<std::string, Interval>> saved;
    auto narrow = [&](const std::string& var, std::int64_t lo,
                      std::int64_t hi) {
      auto it = ranges_.find(var);
      if (it == ranges_.end()) return;
      const Interval cur = it->second;
      const Interval next{std::max(cur.lo, lo), std::min(cur.hi, hi)};
      if (next.lo > next.hi) return;  // contradiction: branch is dead
      saved.emplace_back(var, cur);
      it->second = next;
    };
    if (cond && cond->kind == ExprKind::kBinary &&
        (cond->bin == ra::BinOp::kLt || cond->bin == ra::BinOp::kGe)) {
      const Expr& a = cond->args[0];
      const Expr& b = cond->args[1];
      const auto bound_a = range_of(a);
      const auto bound_b = range_of(b);
      const std::int64_t top = Interval::everything().hi;
      const std::int64_t bot = Interval::everything().lo;
      // kLt taken and kGe not-taken both mean a < b; the other two a >= b.
      const bool a_lt_b = (cond->bin == ra::BinOp::kLt) == taken;
      if (a_lt_b) {
        if (a->kind == ExprKind::kVar && bound_b)
          narrow(a->name, bot, bound_b->hi - 1);
        if (b->kind == ExprKind::kVar && bound_a)
          narrow(b->name, bound_a->lo + 1, top);
      } else {
        if (a->kind == ExprKind::kVar && bound_b)
          narrow(a->name, bound_b->lo, top);
        if (b->kind == ExprKind::kVar && bound_a)
          narrow(b->name, bot, bound_a->hi);
      }
    }
    fn();
    for (auto& [var, iv] : saved) ranges_[var] = iv;
  }

  // -- expression checks -----------------------------------------------------

  void expr(const Expr& e) {
    if (!e) return;
    switch (e->kind) {
      case ExprKind::kVar:
        if (!is_bound(e->name))
          error("def-use", "variable '" + e->name +
                               "' is not bound by any enclosing for/let "
                               "and is not a program parameter");
        return;
      case ExprKind::kLoad:
        access(e->name, e->args, /*is_store=*/false);
        for (const Expr& a : e->args) expr(a);
        return;
      case ExprKind::kSum: {
        // sum(axis, extent, body): the axis is bound over the body only.
        expr(e->args[0]);
        Binding b;
        if (auto ext = range_of(e->args[0]); ext && ext->hi >= 1) {
          b.has_range = true;
          b.range = Interval::range(0, ext->hi - 1);
        }
        with_binding(e->name, b, "sum axis", [&] { expr(e->args[1]); });
        return;
      }
      case ExprKind::kSelect: {
        expr(e->args[0]);
        with_refinement(e->args[0], true, [&] { expr(e->args[1]); });
        with_refinement(e->args[0], false, [&] { expr(e->args[2]); });
        return;
      }
      default:
        break;
    }
    for (const Expr& a : e->args) expr(a);
  }

  /// Checks one buffer access (load or store): declaration, arity and
  /// static bounds of every direct index.
  void access(const std::string& name, const std::vector<Expr>& indices,
              bool is_store) {
    const char* what = is_store ? "store to" : "load of";
    auto it = buffers_.find(name);
    if (it == buffers_.end()) {
      error("undeclared-buffer",
            std::string(what) + " undeclared buffer '" + name + "'");
      return;
    }
    const Buffer& b = *it->second;
    if (!b.shape.empty() && b.shape.size() != indices.size()) {
      error("arity", std::string(what) + " buffer '" + name + "' uses " +
                         std::to_string(indices.size()) +
                         " indices but the buffer has rank " +
                         std::to_string(b.shape.size()));
      return;
    }
    for (std::size_t k = 0; k < indices.size() && k < b.shape.size(); ++k) {
      const Expr& ix = indices[k];
      if (index_is_indirect(ix)) continue;  // §5.1: non-affine, runtime
      const auto got = range_of(ix);
      if (!got) continue;  // symbolic — nothing provable either way
      if (got->lo < 0) {
        error("bounds", std::string(what) + " buffer '" + name +
                            "' dimension " + std::to_string(k) +
                            ": index '" + ra::to_string(ix) +
                            "' can reach " + std::to_string(got->lo) +
                            " (< 0)");
        continue;
      }
      // The buffer is guaranteed at least min(extent) elements; an index
      // provably reaching that is out of range on some execution.
      const auto ext = bound_of(b.shape[k], VarRanges{});
      if (ext && got->hi >= ext->lo)
        error("bounds", std::string(what) + " buffer '" + name +
                            "' dimension " + std::to_string(k) +
                            ": index '" + ra::to_string(ix) +
                            "' reaches " + std::to_string(got->hi) +
                            " but the extent is " +
                            std::to_string(ext->lo));
    }
    scoped_access(name, b);
  }

  // -- memory-scope tracking -------------------------------------------------

  struct ScopedState {
    bool written = false;
    bool barrier_since_write = false;
    bool reported_live = false;
    bool reported_escape = false;
    bool has_home = false;
    /// The dependence/node-loop nest of the first access: a kShared or
    /// kRegister buffer has a one-iteration lifetime (§5.1 dense
    /// indexing), so every access must sit in the same nest.
    std::vector<const StmtNode*> home;
  };

  void scoped_access(const std::string& name, const Buffer& b) {
    if (b.scope == MemScope::kGlobal) return;
    ScopedState& st = scoped_[name];
    // The lifetime-defining nest is the dependence-carrying loop chain
    // only: node loops may legitimately be split (peeling's main/tail)
    // or specialized (leaf vs. internal) without changing which batch
    // iteration a one-iteration buffer belongs to.
    if (!st.has_home) {
      st.has_home = true;
      st.home = dep_stack_;
    } else if (!st.reported_escape && st.home != dep_stack_) {
      st.reported_escape = true;
      error("scope",
            std::string(b.scope == MemScope::kShared ? "shared" :
                                                       "register") +
                " buffer '" + name +
                "' escapes its producing nest: accessed under a "
                "different dependence/node-loop nest than its other "
                "accesses");
    }
  }

  void scoped_store(const std::string& name) {
    auto it = buffers_.find(name);
    if (it == buffers_.end() || it->second->scope == MemScope::kGlobal)
      return;
    ScopedState& st = scoped_[name];
    st.written = true;
    st.barrier_since_write = false;
  }

  void scoped_load(const std::string& name) {
    auto it = buffers_.find(name);
    if (it == buffers_.end() || it->second->scope == MemScope::kGlobal)
      return;
    ScopedState& st = scoped_[name];
    if (st.written && st.barrier_since_write && !st.reported_live) {
      st.reported_live = true;
      error("scope",
            std::string(it->second->scope == MemScope::kShared ?
                            "shared" :
                            "register") +
                " buffer '" + name +
                "' is live across a barrier: written before a kBarrier "
                "and read after it (on-chip scopes do not survive "
                "device-wide synchronization)");
    }
  }

  /// Records loads inside an expression for scope liveness (the walk in
  /// expr() handles declaration/bounds; liveness needs load order).
  void scoped_loads_in(const Expr& e) {
    if (!e) return;
    if (e->kind == ExprKind::kLoad) scoped_load(e->name);
    for (const Expr& a : e->args) scoped_loads_in(a);
  }

  // -- barrier legality ------------------------------------------------------

  /// §A.4: a carries_dependence loop whose iterations produce values that
  /// later iterations read indirectly, and whose body runs in parallel,
  /// must synchronize each iteration with a device-wide barrier. The
  /// read/write sets come from the shared effect engine (ilir/analysis),
  /// the same walk the memory planner's liveness is built on.
  void check_dependence_loop(const StmtNode& loop) {
    bool has_parallel = false;
    visit(loop.body, [&](const Stmt& t) {
      if (t->kind == StmtKind::kFor && t->fkind == ForKind::kParallel)
        has_parallel = true;
    });
    if (!has_parallel) return;
    const Effects eff = effects_of(loop.body);
    if (eff.has_barrier) return;
    for (const std::string& buf : eff.indirect_reads)
      if (eff.writes.count(buf) > 0)
        error("barrier", "loop '" + loop.var +
                             "' carries a dependence on buffer '" + buf +
                             "' (written per iteration, read indirectly by "
                             "later ones) and runs parallel work, but its "
                             "body contains no kBarrier");
  }

  // -- statement walk --------------------------------------------------------

  void stmt(const Stmt& s) {
    if (!s) return;
    switch (s->kind) {
      case StmtKind::kFor: {
        path_.push_back("for(" + s->var + ")");
        expr(s->min);
        expr(s->extent);
        scoped_loads_in(s->min);
        scoped_loads_in(s->extent);
        if (opt_.require_barriers && s->carries_dependence)
          check_dependence_loop(*s);
        Binding b;
        const auto mn = range_of(s->min);
        const auto ext = range_of(s->extent);
        if (mn && ext && ext->hi >= 1) {
          b.has_range = true;
          b.range = Interval::range(mn->lo, mn->hi + ext->hi - 1);
        }
        const bool sync = s->carries_dependence || s->is_node_loop;
        if (sync) sync_stack_.push_back(s.get());
        if (s->carries_dependence) dep_stack_.push_back(s.get());
        with_binding(s->var, b, "loop variable",
                     [&] { stmt(s->body); });
        if (s->carries_dependence) dep_stack_.pop_back();
        if (sync) sync_stack_.pop_back();
        path_.pop_back();
        break;
      }
      case StmtKind::kLet: {
        path_.push_back("let(" + s->var + ")");
        expr(s->value);
        scoped_loads_in(s->value);
        Binding b;
        if (auto v = range_of(s->value)) {
          b.has_range = true;
          b.range = *v;
        }
        with_binding(s->var, b, "let binding", [&] { stmt(s->body); });
        path_.pop_back();
        break;
      }
      case StmtKind::kStore: {
        path_.push_back("store(" + s->buffer + ")");
        access(s->buffer, s->indices, /*is_store=*/true);
        for (const Expr& ix : s->indices) expr(ix);
        expr(s->value);
        // Loads in the value and indices happen before the store lands.
        scoped_loads_in(s->value);
        for (const Expr& ix : s->indices) scoped_loads_in(ix);
        scoped_store(s->buffer);
        path_.pop_back();
        break;
      }
      case StmtKind::kSeq: {
        for (std::size_t i = 0; i < s->stmts.size(); ++i) {
          path_.push_back("seq[" + std::to_string(i) + "]");
          stmt(s->stmts[i]);
          path_.pop_back();
        }
        break;
      }
      case StmtKind::kIf: {
        path_.push_back("if");
        expr(s->cond);
        scoped_loads_in(s->cond);
        with_refinement(s->cond, true, [&] { stmt(s->then_s); });
        with_refinement(s->cond, false, [&] { stmt(s->else_s); });
        path_.pop_back();
        break;
      }
      case StmtKind::kBarrier:
        if (sync_stack_.empty())
          error("barrier",
                "kBarrier outside every dependence-carrying and node "
                "loop: barriers must sit on the loop that carries the "
                "inter-batch dependence (§A.4)");
        for (auto& [name, st] : scoped_)
          if (st.written) st.barrier_since_write = true;
        break;
      case StmtKind::kComment:
        break;
    }
  }

  const Program& p_;
  const VerifyOptions& opt_;
  std::vector<Diagnostic>& diags_;

  std::map<std::string, const Buffer*> buffers_;
  std::set<std::string> symbols_;
  std::map<std::string, Binding> scopes_;
  VarRanges ranges_;
  std::vector<std::string> path_;
  /// Enclosing loops with carries_dependence or is_node_loop set — the
  /// legal barrier sites (§A.4: improved placement sits on the
  /// dependence loop, the conservative TVM placement on node loops).
  std::vector<const StmtNode*> sync_stack_;
  /// Enclosing carries_dependence loops only — the nests that define
  /// on-chip buffer lifetimes for the scope-escape check.
  std::vector<const StmtNode*> dep_stack_;
  std::map<std::string, ScopedState> scoped_;
};

}  // namespace

std::vector<support::Diagnostic> verify(const Program& program,
                                        const VerifyOptions& options) {
  std::vector<Diagnostic> diags;
  Checker(program, options, diags).run();
  // Named-dimension correctness (§A.2) shares the reporting surface.
  for (Diagnostic& d : check_named_dims_diags(program))
    diags.push_back(std::move(d));
  return diags;
}

void verify_or_throw(const Program& program, const std::string& phase,
                     const VerifyOptions& options) {
  const std::vector<Diagnostic> diags = verify(program, options);
  if (!support::has_errors(diags)) return;
  CORTEX_CHECK(false) << "ILIR verification failed after '" << phase
                      << "' for program '" << program.name << "' ("
                      << support::error_count(diags) << " error(s)):\n"
                      << support::format(support::sorted_by_severity(diags));
}

}  // namespace cortex::ilir
