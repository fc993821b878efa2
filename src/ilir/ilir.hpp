#pragma once
// ILIR — Irregular Loop IR (§5): a tensor-compiler loop IR extended with
//   - indirect memory accesses (uninterpreted functions of loop variables),
//   - loops with variable bounds (batch sizes known only at runtime),
//   - a conditional operator (§5.2),
//   - named dimensions relating tensor dimensions to loops (§A.2),
//   - explicit memory scopes so the dense-indexing transform (§5.1) and
//     model persistence are expressible.
// The ILIR is purely loop-based and data-structure agnostic: all structure
// accesses have become loads of linearizer arrays (left/right/words/
// batch_begin/batch_length) by the time a Program exists.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ra/expr.hpp"

namespace cortex::ilir {

using ra::Expr;

/// Where a buffer lives; fusion + dense indexing move intermediates from
/// kGlobal (off-chip) to kShared/kRegister (on-chip) — the memory-traffic
/// effect behind Fig. 8.
enum class MemScope { kGlobal, kShared, kRegister };

/// A tensor buffer with named dimensions (§A.2). `dims[i]` names the
/// semantic space of shape[i] (e.g. {"d_node","d_hidden"}), letting bounds
/// inference relate buffer dimensions to the (possibly more numerous)
/// loops of the producing nest.
struct Buffer {
  std::string name;
  std::vector<Expr> shape;
  std::vector<std::string> dims;
  MemScope scope = MemScope::kGlobal;
  ra::DType dtype = ra::DType::kFloat;

  /// Bytes if all shape extents are constant; -1 when symbolic.
  std::int64_t const_bytes() const;
};

enum class ForKind { kSerial, kParallel, kVectorized, kUnrolled };

enum class StmtKind {
  kFor,
  kLet,      ///< let var = value in body
  kStore,    ///< buffer[indices...] = value
  kSeq,
  kIf,
  kBarrier,  ///< device-wide synchronization
  kComment,
};

struct StmtNode;
using Stmt = std::shared_ptr<const StmtNode>;

/// One ILIR statement node; fields used per `kind` (see factories).
struct StmtNode {
  StmtKind kind;

  // kFor
  std::string var{};
  Expr min{};
  Expr extent{};
  ForKind fkind = ForKind::kSerial;
  /// This loop iterates over dynamic batches and therefore carries the
  /// node->child data dependence (§A.4 barrier placement).
  bool carries_dependence = false;
  /// This loop iterates over the nodes inside one batch.
  bool is_node_loop = false;
  /// Named dimension this loop (or let-bound index) ranges over (§A.2),
  /// e.g. "d_batch", "d_all_batches", "d_hidden", "d_node". Empty when
  /// not annotated.
  std::string dim{};
  Stmt body{};

  // kLet
  Expr value{};  // also kStore's stored value

  // kStore
  std::string buffer{};
  std::vector<Expr> indices{};

  // kSeq
  std::vector<Stmt> stmts{};

  // kIf
  Expr cond{};
  Stmt then_s{};
  Stmt else_s{};

  // kComment
  std::string text{};
};

// -- statement factories -----------------------------------------------------

Stmt make_for(std::string var, Expr min, Expr extent, Stmt body,
              ForKind fkind = ForKind::kSerial,
              bool carries_dependence = false, bool is_node_loop = false,
              std::string dim = "");
Stmt make_let(std::string var, Expr value, Stmt body, std::string dim = "");
Stmt make_store(std::string buffer, std::vector<Expr> indices, Expr value);
Stmt make_seq(std::vector<Stmt> stmts);
Stmt make_if(Expr cond, Stmt then_s, Stmt else_s = nullptr);
Stmt make_barrier();
Stmt make_comment(std::string text);

/// A complete lowered program: buffers + a single statement tree, plus the
/// dimension registry used by bounds inference.
struct Program {
  std::string name;
  std::vector<Buffer> buffers;
  /// Named-dimension extents (e.g. "d_hidden" -> 256, "d_node" -> N).
  std::vector<std::pair<std::string, Expr>> dim_extents;
  /// Free runtime scalar symbols the program may reference without an
  /// enclosing kFor/kLet binding ("N", "num_leaves", ...). The runtime
  /// binds them per inference (Evaluator::bind_scalar / the engine); the
  /// static verifier treats any variable outside this list and outside
  /// every loop/let scope as a def-before-use error.
  std::vector<std::string> params;
  Stmt body;

  const Buffer* find_buffer(const std::string& name) const;
  Buffer* find_buffer(const std::string& name);
};

/// Pretty-prints a statement tree with indentation (tests/examples).
std::string to_string(const Stmt& s, int indent = 0);
std::string to_string(const Program& p);

/// Structural deep-equality of statement trees.
bool struct_equal(const Stmt& a, const Stmt& b);

/// Canonical structural encodings (the JIT keys compiled kernels on the
/// program fingerprint; see support/fingerprint.hpp for the encoding
/// contract). A null Stmt encodes as a distinct marker, so optional
/// children (else branches) can never re-associate.
void fingerprint(const Buffer& b, support::FingerprintBuilder& fb);
void fingerprint(const Stmt& s, support::FingerprintBuilder& fb);
void fingerprint(const Program& p, support::FingerprintBuilder& fb);
support::Fingerprint fingerprint(const Program& p);

// -- tree walking helpers (used by passes) -----------------------------------

/// Applies f bottom-up to every statement; f may return a replacement.
Stmt transform(const Stmt& s, const std::function<Stmt(const Stmt&)>& f);

/// Visits every statement top-down.
void visit(const Stmt& s, const std::function<void(const Stmt&)>& f);

/// Visits every expression appearing in the statement tree.
void visit_exprs(const Stmt& s, const std::function<void(const Expr&)>& f);

}  // namespace cortex::ilir
