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
//   - records the child connectivity as indirection arrays (left/right for
//     binary trees, CSR for variable-fanin DAGs).
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

  /// Child ids per node (binary structures); -1 for leaves.
  std::vector<std::int32_t> left;
  std::vector<std::int32_t> right;
  /// CSR child lists (general structures incl. DAGs).
  std::vector<std::int32_t> child_offsets;  // size num_nodes + 1
  std::vector<std::int32_t> child_ids;
  /// Leaf word / node feature id per node (-1 for internal tree nodes).
  std::vector<std::int32_t> word;
  /// Height (max distance to a leaf) per node.
  std::vector<std::int32_t> height;
  /// Root node ids (one per tree in the mini-batch; >1 for forests/DAGs).
  std::vector<std::int32_t> roots;

  /// Dynamic batches in bottom-up execution order; batch 0 is the leaf
  /// batch (for DAGs, the source wavefront). Node ids in batch i are the
  /// contiguous range [batch_begin[i], batch_begin[i]+batch_length[i]).
  std::vector<std::int32_t> batch_begin;
  std::vector<std::int32_t> batch_length;

  /// A node-by-node topological order (children before parents), walked
  /// by the ILIR lowered without dynamic batching, by the modeled cost of
  /// such a schedule and by per-node reference executors.
  std::vector<std::int32_t> exec_order;

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

/// Checks the Appendix-B invariants; throws cortex::Error on violation.
/// Used by tests and (cheaply) by engines in debug builds.
void check_invariants(const Linearized& lin);

}  // namespace cortex::linearizer
