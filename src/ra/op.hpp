#pragma once
// Recursive API operators (§3): the model is a DAG of operators, each
// specified as a loop nest producing a tensor (Listing 1). Structural
// helper constructors additionally tag operators with a recognized
// pattern (matvec, elementwise, ...) from which models::cell_from_ra
// derives the cell program every engine runs; the generic AST remains the
// ground truth that lowering and the ILIR evaluator read.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ra/expr.hpp"

namespace cortex::ra {

/// Operator kinds.
enum class OpTag {
  kInput,        ///< model weight / embedding table (global tensor)
  kPlaceholder,  ///< result-of-recursive-call placeholder (Listing 1 l.9)
  kCompute,      ///< generic loop-nest operator
  kIfThenElse,   ///< conditional operator over two sub-graphs (§5.2)
  kRecursion,    ///< ties placeholder to body (recursion_op, l.22)
};

/// Recognized compute patterns: each names the cell op that
/// models::cell_from_ra translates the operator into (ra::fingerprint
/// encodes it too). kOpaque operators still lower and evaluate correctly
/// through their AST, but have no cell op, so a model using one cannot be
/// served.
enum class ComputePattern {
  kOpaque,       ///< no special structure; AST only
  kEmbedLookup,  ///< out[n,i] = Table[words[n], i]
  kChildRead,    ///< out[n,i] = ph[child(n,k), offset + i]
  kChildSum,     ///< out[n,i] = sum_k ph[child(n,k), i]
  kMatVec,       ///< out[n,i] = sum_j W[i,j] * in[n,j]
  kEltwise,      ///< out[n,i] = f(a[n,i], b[n,i], ...) pointwise
  kConstInit,    ///< out[n,i] = c (uniform base-case value)
  kConcat,       ///< out[n,:] = [a[n,:] ; b[n,:]] (or a zero tail)
  kNodeMatVec,   ///< out[n,i] = sum_j M[n, i*H + j] * v[n,j] (MV-RNN)
  kMatStack2,    ///< out[n, r*H + c] = W[r,:] . vstack(A[n], B[n])[:, c]
};

struct Op;
using OpRef = std::shared_ptr<Op>;

/// One RA operator. `axes`/`extents` define its loop nest; by convention
/// per-node operators have first axis "n" with symbolic extent N (the node
/// count, unknown until runtime).
struct Op {
  OpTag tag = OpTag::kCompute;
  ComputePattern pattern = ComputePattern::kOpaque;
  std::string name;

  /// Loop axes of the operator's nest (e.g. {"n","i"}).
  std::vector<std::string> axes;
  /// Extent per axis; the node axis uses the symbolic var "N".
  std::vector<Expr> extents;
  /// Body: value stored at [axes...]. Null for inputs/placeholders.
  Expr body;

  /// Operands (producer ops referenced by body Loads, in load order).
  std::vector<OpRef> inputs;

  // kInput only: concrete tensor shape.
  std::vector<std::int64_t> input_shape;

  // kChildRead only: which child, and the offset into its state. They
  // restate what the body encodes, so ra::fingerprint skips them.
  std::int64_t child_index = 0;
  std::int64_t child_offset = 0;

  // kIfThenElse only: condition + branches.
  Expr cond;
  OpRef then_op;
  OpRef else_op;

  // kRecursion only.
  OpRef placeholder;
  OpRef recursion_body;

  /// Creation index, increasing in constructor-call order across the
  /// process: the order models::cell_from_ra emits cell ops in. Not part
  /// of the operator's structure, so ra::fingerprint skips it.
  std::uint64_t seq = 0;

  /// True for tensors with a per-node leading axis.
  bool per_node() const;
  /// Trailing (non-node) extent product for per-node ops, e.g. H.
  std::int64_t inner_elems() const;
};

// -- constructors ------------------------------------------------------------

/// Declares a model weight / table of the given concrete shape.
OpRef input_tensor(std::string name, std::vector<std::int64_t> shape);

/// Declares the placeholder standing for results of recursive calls:
/// logically shaped (N, inner...).
OpRef placeholder(std::string name, std::vector<std::int64_t> inner_shape);

/// Generic operator: out[axes...] = body. Inputs are inferred from Loads.
OpRef compute(std::string name, std::vector<std::string> axes,
              std::vector<Expr> extents, Expr body,
              std::vector<OpRef> inputs);

/// out[n,i] = table[words[n], i].
OpRef embed_lookup(std::string name, OpRef table, std::int64_t width);

/// out[n,i] = ph[child(n,k), i] (k = 0 left, 1 right).
OpRef child_read(std::string name, OpRef ph, std::int64_t k,
                 std::int64_t width);

/// out[n,i] = ph[child(n,k), offset + i] — a slice of a child's state
/// (models whose state packs several tensors, e.g. TreeLSTM's [h; c]).
OpRef child_read_slice(std::string name, OpRef ph, std::int64_t k,
                       std::int64_t offset, std::int64_t width);

/// out[n,i] = sum over children c of ph[c, i] (child-sum models; handles
/// variable fan-in via the num_children uninterpreted function).
OpRef child_sum(std::string name, OpRef ph, std::int64_t width);

/// out[n,i] = sum_j W[i,j] * in[n,j]; W must be a kInput of shape (m, k).
OpRef matvec(std::string name, OpRef w, OpRef in);

/// out[n,i] = body(i-indexed loads of the given per-node operands).
/// `body` is built with load(op->name, {var("n"), var("i")}).
OpRef eltwise(std::string name, Expr body, std::vector<OpRef> inputs,
              std::int64_t width);

/// out[n,i] = c — uniform base-case initial value (hoisting target, §4.3).
OpRef const_init(std::string name, double value, std::int64_t width);

/// out[n,:] = [a[n,:] ; b[n,:]] — two per-node operators side by side
/// along the element axis (e.g. TreeLSTM's state [h; c]).
OpRef concat(std::string name, OpRef a, OpRef b);

/// out[n,:] = [a[n,:] ; 0] — `a` followed by zeros, `width` elements in
/// all (SeqLSTM's token leaf [x; 0]).
OpRef concat(std::string name, OpRef a, std::int64_t width);

/// out[n,i] = sum_j m[n, i*H + j] * v[n,j] with H = |v|: a product with
/// the H x H matrix each node carries flattened in `m` (MV-RNN).
OpRef node_matvec(std::string name, OpRef m, OpRef v);

/// out[n, r*H + c] = sum_k w[r,k] * vstack(m0[n], m1[n])[k,c]: the (H, 2H)
/// weight `w` times the two per-node H x H matrices stacked (MV-RNN's
/// matrix composition).
OpRef mat_stack2(std::string name, OpRef w, OpRef m0, OpRef m1);

/// Conditional operator over the leaf check (§5.2).
OpRef if_then_else(std::string name, Expr cond, OpRef then_op, OpRef else_op);

/// Creates the recursion: placeholder `ph` is defined to be `body` at
/// every node (Listing 1 l.22).
OpRef recursion_op(OpRef ph, OpRef body);

/// Pretty-prints one operator as "name[axes] = body".
std::string to_string(const OpRef& op);

/// Appends a canonical structural encoding of the operator DAG rooted at
/// `op` (every field of every reachable operator, including if_then_else
/// branches and the recursion placeholder/body, except the creation index
/// and the child-read fields the body already encodes). Shared operators are
/// numbered in first-visit order, so operator *identity* is captured (two
/// reads of one placeholder encode differently from reads of two distinct
/// placeholders) while isomorphic DAGs built by separate factory calls
/// encode identically.
void fingerprint(const OpRef& op, support::FingerprintBuilder& fb);

}  // namespace cortex::ra
