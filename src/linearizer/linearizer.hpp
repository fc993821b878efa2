#pragma once
// Data-structure linearizer (paper §4.2, Appendix B).
//
// At runtime, Cortex lowers pointer-linked trees/DAGs/sequences into flat
// arrays that the generated loop code iterates over. The linearizer:
//   - assigns every node a dense integer id using the Appendix-B numbering
//     scheme: nodes of one dynamic batch are numbered consecutively,
//     parents receive *lower* ids than all of their descendants, and all
//     leaves are numbered higher than all internal nodes — so a leaf check
//     is a single integer comparison (id >= first_leaf_id) instead of a
//     memory load;
//   - performs dynamic batching: nodes are grouped by height (trees) or
//     longest-path depth (DAGs) into batches whose members are mutually
//     independent, emitted in bottom-up execution order as
//     batch_begin/batch_length pairs;
//   - partitions nodes for specialized branches (the leaf/internal split
//     of the common-case `isleaf` specialization);
//   - records the child connectivity as CSR indirection arrays (two
//     children per internal tree node, left then right; the fan-in of a
//     DAG node).
// A linearization is exactly these arrays: CSR children, word ids, roots
// and wavefront batches. The node-by-node order (for_each_node) and a
// node's height (its batch index) are derived from the batches, not
// stored.
// No tensor computation happens here (property P.1 separates control flow
// from tensor work), so linearization runs on the host CPU.

#include <cstdint>
#include <vector>

#include "ds/dag.hpp"
#include "ds/tree.hpp"

namespace cortex::linearizer {

/// What kind of recursive structure the model declares (paper §3: the user
/// provides the structure kind and max children per node).
enum class StructureKind { kSequence, kTree, kDag };

/// Static description of the linearizer to generate, produced by RA
/// lowering (§4.1) from the model's structure. Every schedule gets the
/// same arrays: wavefront batches with the leaves numbered last.
struct LinearizerSpec {
  StructureKind kind = StructureKind::kTree;
  /// Declared maximum children per node (2 for the binary-tree models).
  std::int64_t max_children = 2;
};

/// Arrays produced by linearization; the inputs of generated ILIR code.
struct Linearized {
  std::int64_t num_nodes = 0;
  std::int64_t num_leaves = 0;
  /// Leaves occupy ids [first_leaf_id, num_nodes).
  std::int64_t first_leaf_id = 0;

  /// CSR child lists: node i's children are
  /// child_ids[child_offsets[i] .. child_offsets[i+1]). A tree's internal
  /// node has two, left then right; a leaf has none.
  std::vector<std::int32_t> child_offsets;  // size num_nodes + 1
  std::vector<std::int32_t> child_ids;
  /// Leaf word / node feature id per node (-1 for internal tree nodes).
  std::vector<std::int32_t> word;
  /// Root node ids (one per tree in the mini-batch; >1 for forests/DAGs).
  std::vector<std::int32_t> roots;

  /// Dynamic batches in bottom-up execution order; batch 0 is the leaf
  /// batch (for DAGs, the source wavefront). Node ids in batch i are the
  /// contiguous range [batch_begin[i], batch_begin[i]+batch_length[i]).
  /// Batch i holds the nodes of height i (trees) or wavefront depth i
  /// (DAGs): every level is non-empty, so the batch index is the height.
  std::vector<std::int32_t> batch_begin;
  std::vector<std::int32_t> batch_length;

  std::int64_t max_fanin = 0;
  StructureKind kind = StructureKind::kTree;

  std::int64_t num_internal() const { return num_nodes - num_leaves; }
  std::int64_t num_batches() const {
    return static_cast<std::int64_t>(batch_begin.size());
  }
  bool is_leaf(std::int32_t id) const { return id >= first_leaf_id; }
  /// Length of the widest dynamic batch: the row bound of the per-depth
  /// register panels the batched wavefront executor gathers, so it can
  /// size its workspace once per run instead of per batch.
  std::int64_t max_batch_length() const {
    std::int64_t m = 0;
    for (const std::int32_t len : batch_length)
      if (len > m) m = len;
    return m;
  }
};

/// Linearizes a mini-batch of trees (the common case). Throws on malformed
/// input (validate() failure) or spec violations (max_children < 2).
Linearized linearize_trees(const std::vector<const ds::Tree*>& trees,
                           const LinearizerSpec& spec);

/// Convenience overload for owning containers.
Linearized linearize_trees(
    const std::vector<std::unique_ptr<ds::Tree>>& trees,
    const LinearizerSpec& spec);

/// Linearizes a mini-batch of DAGs, batching by wavefront depth.
Linearized linearize_dags(const std::vector<const ds::Dag*>& dags,
                          const LinearizerSpec& spec);

/// The node-by-node execution order: calls fn(id, batch) for every node,
/// batches bottom-up and ascending id within each, so children come
/// before parents. `batch` is the node's height (trees) or wavefront
/// depth (DAGs). Walked by the schedule without dynamic batching (its
/// modeled cost and, through node_order, its ILIR), by the DyNet-like
/// agenda and by the per-node reference executor.
template <typename Fn>
void for_each_node(const Linearized& lin, Fn&& fn) {
  for (std::size_t b = 0; b < lin.batch_begin.size(); ++b)
    for (std::int32_t i = 0; i < lin.batch_length[b]; ++i)
      fn(lin.batch_begin[b] + i, static_cast<std::int32_t>(b));
}

/// for_each_node's ids as one array: the `exec_order` buffer that ILIR
/// lowered without dynamic batching reads.
std::vector<std::int32_t> node_order(const Linearized& lin);

/// Checks the Appendix-B invariants; throws cortex::Error on violation:
/// batches partition the ids bottom-up with the leaves last, parents are
/// numbered below their children, and every child lies in an earlier
/// batch than its parent. Tests run it over every structure kind.
void check_invariants(const Linearized& lin);

}  // namespace cortex::linearizer
