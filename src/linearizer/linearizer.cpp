#include "linearizer/linearizer.hpp"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <utility>

#include "support/logging.hpp"

namespace cortex::linearizer {

namespace {

/// Assigns ids per Appendix B: iterate height groups from the tallest
/// (roots) down to height 0 (leaves), handing out consecutive ids. This
/// numbers every batch consecutively, numbers parents below children, and
/// places all leaves in the top id range.
struct Numbering {
  std::vector<std::vector<std::int32_t>> groups_by_height;  // node->list
};

void finalize_batches(Linearized& lin,
                      const std::vector<std::vector<std::int32_t>>& groups) {
  // groups[h] holds node ids of height h (already renumbered). Ids were
  // assigned from tallest group downward, so group h occupies a contiguous
  // range. Emit batches in bottom-up execution order: h = 0 first.
  for (std::size_t h = 0; h < groups.size(); ++h) {
    const auto& g = groups[h];
    if (g.empty()) continue;
    const std::int32_t begin = *std::min_element(g.begin(), g.end());
    lin.batch_begin.push_back(begin);
    lin.batch_length.push_back(static_cast<std::int32_t>(g.size()));
  }
  // Execution order over single nodes: batches bottom-up, ascending id
  // within a batch.
  lin.exec_order.reserve(static_cast<std::size_t>(lin.num_nodes));
  for (std::size_t b = 0; b < lin.batch_begin.size(); ++b)
    for (std::int32_t i = 0; i < lin.batch_length[b]; ++i)
      lin.exec_order.push_back(lin.batch_begin[b] + i);
}

}  // namespace

Linearized linearize_trees(const std::vector<const ds::Tree*>& trees,
                           const LinearizerSpec& spec) {
  CORTEX_CHECK(!trees.empty()) << "empty tree batch";
  CORTEX_CHECK(spec.kind != StructureKind::kDag)
      << "tree linearizer invoked with DAG spec";
  CORTEX_CHECK(spec.max_children >= 2)
      << "binary trees need max_children >= 2, spec says "
      << spec.max_children;

  // The linearizer is on the latency path (§7.5 reports it in
  // microseconds), so everything below is O(N) vector bookkeeping: node
  // pointers get a traversal index in their inline scratch slot, heights
  // and ids live in flat arrays, and no hashing happens anywhere.

  // Pass 1: post-order traversal across all trees, computing heights.
  // (The paper's observation: the linearizer is "the input program
  // stripped of all tensor computation".)
  std::vector<const ds::TreeNode*> traversal;
  std::vector<std::int32_t> height_of;  // by traversal index
  std::vector<const ds::TreeNode*> tree_roots;
  std::int64_t total_nodes = 0;
  for (const ds::Tree* t : trees) {
    CORTEX_CHECK(t != nullptr) << "null tree in batch";
    t->validate();
    total_nodes += t->num_nodes();
  }
  traversal.reserve(static_cast<std::size_t>(total_nodes));
  height_of.reserve(static_cast<std::size_t>(total_nodes));
  std::int32_t max_h = 0;
  // Post-order over an explicit stack (a chain is as deep as it is long,
  // so recursion would overflow the thread's stack on a long one). This
  // traversal is the dominant term of the µs-scale linearization cost.
  // A node is pushed once to descend and once more, marked, to be emitted
  // after both children: left subtree, right subtree, node.
  std::vector<std::pair<const ds::TreeNode*, bool>> stack;
  for (const ds::Tree* t : trees) {
    tree_roots.push_back(t->root());
    stack.emplace_back(t->root(), false);
    while (!stack.empty()) {
      const auto [n, children_done] = stack.back();
      stack.pop_back();
      if (!children_done && !n->is_leaf()) {
        stack.emplace_back(n, true);
        stack.emplace_back(n->right, false);
        stack.emplace_back(n->left, false);
        continue;
      }
      const std::int32_t h =
          n->is_leaf()
              ? 0
              : 1 + std::max(
                        height_of[static_cast<std::size_t>(
                            n->left->lin_scratch)],
                        height_of[static_cast<std::size_t>(
                            n->right->lin_scratch)]);
      n->lin_scratch = static_cast<std::int32_t>(traversal.size());
      traversal.push_back(n);
      height_of.push_back(h);
      max_h = std::max(max_h, h);
    }
  }

  // Pass 2: Appendix-B numbering — hand out consecutive ids from the
  // tallest height group down to the leaves (counting sort by height).
  std::vector<std::int32_t> group_count(
      static_cast<std::size_t>(max_h) + 1, 0);
  for (const std::int32_t h : height_of)
    ++group_count[static_cast<std::size_t>(h)];
  // group_begin[h] = first id of height group h (tallest group first).
  std::vector<std::int32_t> group_begin(
      static_cast<std::size_t>(max_h) + 1, 0);
  {
    std::int32_t next = 0;
    for (std::int64_t h = max_h; h >= 0; --h) {
      group_begin[static_cast<std::size_t>(h)] = next;
      next += group_count[static_cast<std::size_t>(h)];
    }
  }
  std::vector<std::int32_t> id_of(traversal.size());
  {
    std::vector<std::int32_t> cursor = group_begin;
    for (std::size_t ti = 0; ti < traversal.size(); ++ti)
      id_of[ti] = cursor[static_cast<std::size_t>(height_of[ti])]++;
  }

  // Pass 3: fill the arrays.
  Linearized lin;
  lin.kind = spec.kind;
  lin.num_nodes = total_nodes;
  lin.num_leaves = group_count[0];
  lin.first_leaf_id = total_nodes - lin.num_leaves;
  lin.max_fanin = 2;
  const auto n_sz = static_cast<std::size_t>(total_nodes);
  lin.left.assign(n_sz, -1);
  lin.right.assign(n_sz, -1);
  lin.word.assign(n_sz, -1);
  lin.height.assign(n_sz, 0);
  lin.child_offsets.assign(n_sz + 1, 0);
  for (std::size_t ti = 0; ti < traversal.size(); ++ti) {
    const ds::TreeNode* n = traversal[ti];
    const auto i = static_cast<std::size_t>(id_of[ti]);
    lin.height[i] = height_of[ti];
    if (n->is_leaf()) {
      lin.word[i] = n->word;
    } else {
      lin.left[i] = id_of[static_cast<std::size_t>(n->left->lin_scratch)];
      lin.right[i] = id_of[static_cast<std::size_t>(n->right->lin_scratch)];
    }
  }
  // CSR children mirror left/right for uniform engine code.
  for (std::size_t i = 0; i < n_sz; ++i)
    lin.child_offsets[i + 1] =
        lin.child_offsets[i] + (lin.left[i] >= 0 ? 2 : 0);
  lin.child_ids.resize(static_cast<std::size_t>(lin.child_offsets[n_sz]));
  for (std::size_t i = 0; i < n_sz; ++i)
    if (lin.left[i] >= 0) {
      lin.child_ids[static_cast<std::size_t>(lin.child_offsets[i])] =
          lin.left[i];
      lin.child_ids[static_cast<std::size_t>(lin.child_offsets[i]) + 1] =
          lin.right[i];
    }
  for (const ds::TreeNode* r : tree_roots)
    lin.roots.push_back(id_of[static_cast<std::size_t>(r->lin_scratch)]);

  // Batches, bottom-up: height group h occupies the contiguous id range
  // [group_begin[h], group_begin[h] + group_count[h]).
  for (std::int64_t h = 0; h <= max_h; ++h) {
    if (group_count[static_cast<std::size_t>(h)] == 0) continue;
    lin.batch_begin.push_back(group_begin[static_cast<std::size_t>(h)]);
    lin.batch_length.push_back(group_count[static_cast<std::size_t>(h)]);
  }
  lin.exec_order.reserve(n_sz);
  for (std::size_t b = 0; b < lin.batch_begin.size(); ++b)
    for (std::int32_t i = 0; i < lin.batch_length[b]; ++i)
      lin.exec_order.push_back(lin.batch_begin[b] + i);
  return lin;
}

Linearized linearize_trees(
    const std::vector<std::unique_ptr<ds::Tree>>& trees,
    const LinearizerSpec& spec) {
  std::vector<const ds::Tree*> raw;
  raw.reserve(trees.size());
  for (const auto& t : trees) raw.push_back(t.get());
  return linearize_trees(raw, spec);
}

Linearized linearize_dags(const std::vector<const ds::Dag*>& dags,
                          const LinearizerSpec& spec) {
  CORTEX_CHECK(!dags.empty()) << "empty DAG batch";
  CORTEX_CHECK(spec.kind == StructureKind::kDag)
      << "DAG linearizer invoked with non-DAG spec";

  // Wavefront depth per node: 0 for sources, 1 + max(pred depth) else.
  struct PerDag {
    const ds::Dag* dag;
    std::vector<std::int32_t> depth;
  };
  std::vector<PerDag> per;
  std::int64_t total_nodes = 0;
  std::int32_t max_d = 0;
  std::int64_t max_fanin = 0;
  for (const ds::Dag* d : dags) {
    CORTEX_CHECK(d != nullptr) << "null DAG in batch";
    d->validate();
    PerDag p{d, std::vector<std::int32_t>(
                    static_cast<std::size_t>(d->num_nodes()), -1)};
    // Topological sweep via Kahn's algorithm.
    std::vector<std::int64_t> indeg(
        static_cast<std::size_t>(d->num_nodes()), 0);
    std::vector<std::int64_t> stack;
    for (std::int64_t v = 0; v < d->num_nodes(); ++v) {
      indeg[static_cast<std::size_t>(v)] =
          static_cast<std::int64_t>(d->preds(v).size());
      if (indeg[static_cast<std::size_t>(v)] == 0) stack.push_back(v);
    }
    while (!stack.empty()) {
      const std::int64_t v = stack.back();
      stack.pop_back();
      std::int32_t dep = 0;
      for (std::int64_t u : d->preds(v))
        dep = std::max(dep, p.depth[static_cast<std::size_t>(u)] + 1);
      p.depth[static_cast<std::size_t>(v)] = dep;
      max_d = std::max(max_d, dep);
      for (std::int64_t s : d->succs(v))
        if (--indeg[static_cast<std::size_t>(s)] == 0) stack.push_back(s);
    }
    total_nodes += d->num_nodes();
    max_fanin = std::max(max_fanin, d->max_fanin());
    per.push_back(std::move(p));
  }

  // Group (dag_index, node) pairs by depth; number tallest group first.
  std::vector<std::vector<std::pair<std::size_t, std::int64_t>>> by_depth(
      static_cast<std::size_t>(max_d) + 1);
  for (std::size_t di = 0; di < per.size(); ++di)
    for (std::int64_t v = 0; v < per[di].dag->num_nodes(); ++v)
      by_depth[static_cast<std::size_t>(
                   per[di].depth[static_cast<std::size_t>(v)])]
          .emplace_back(di, v);

  std::vector<std::vector<std::int32_t>> ids(per.size());
  for (std::size_t di = 0; di < per.size(); ++di)
    ids[di].assign(static_cast<std::size_t>(per[di].dag->num_nodes()), -1);
  std::int32_t next_id = 0;
  std::vector<std::vector<std::int32_t>> id_groups(by_depth.size());
  for (std::int64_t dpt = max_d; dpt >= 0; --dpt)
    for (const auto& [di, v] : by_depth[static_cast<std::size_t>(dpt)]) {
      ids[di][static_cast<std::size_t>(v)] = next_id;
      id_groups[static_cast<std::size_t>(dpt)].push_back(next_id);
      ++next_id;
    }

  Linearized lin;
  lin.kind = StructureKind::kDag;
  lin.num_nodes = total_nodes;
  lin.num_leaves = static_cast<std::int64_t>(id_groups[0].size());
  lin.first_leaf_id = total_nodes - lin.num_leaves;
  lin.max_fanin = max_fanin;
  const auto n_sz = static_cast<std::size_t>(total_nodes);
  lin.left.assign(n_sz, -1);
  lin.right.assign(n_sz, -1);
  lin.word.assign(n_sz, -1);
  lin.height.assign(n_sz, 0);
  lin.child_offsets.assign(n_sz + 1, 0);

  // First count children per renumbered node, then fill the CSR arrays.
  std::vector<std::vector<std::int32_t>> children(n_sz);
  for (std::size_t di = 0; di < per.size(); ++di) {
    const ds::Dag* d = per[di].dag;
    for (std::int64_t v = 0; v < d->num_nodes(); ++v) {
      const auto id = static_cast<std::size_t>(ids[di][static_cast<std::size_t>(v)]);
      lin.height[id] = per[di].depth[static_cast<std::size_t>(v)];
      lin.word[id] = d->word(v);
      for (std::int64_t u : d->preds(v))
        children[id].push_back(ids[di][static_cast<std::size_t>(u)]);
      if (d->succs(v).empty())
        lin.roots.push_back(static_cast<std::int32_t>(id));
    }
  }
  for (std::size_t i = 0; i < n_sz; ++i)
    lin.child_offsets[i + 1] =
        lin.child_offsets[i] + static_cast<std::int32_t>(children[i].size());
  lin.child_ids.resize(static_cast<std::size_t>(lin.child_offsets[n_sz]));
  for (std::size_t i = 0; i < n_sz; ++i) {
    std::copy(children[i].begin(), children[i].end(),
              lin.child_ids.begin() + lin.child_offsets[i]);
    // Mirror binary fan-in into left/right for engines that can use it.
    if (children[i].size() >= 1) lin.left[i] = children[i][0];
    if (children[i].size() >= 2) lin.right[i] = children[i][1];
  }

  finalize_batches(lin, id_groups);
  return lin;
}

void check_invariants(const Linearized& lin) {
  const auto n = lin.num_nodes;
  CORTEX_CHECK(n > 0) << "empty linearization";
  CORTEX_CHECK(lin.num_leaves > 0 && lin.first_leaf_id == n - lin.num_leaves)
      << "leaf range inconsistent";

  // Batches must partition [0, n) and appear bottom-up: the leaf batch
  // (highest ids) first, the root batch (id 0) last.
  std::vector<bool> covered(static_cast<std::size_t>(n), false);
  std::int64_t covered_count = 0;
  std::int32_t prev_begin = static_cast<std::int32_t>(n);
  for (std::size_t b = 0; b < lin.batch_begin.size(); ++b) {
    const std::int32_t begin = lin.batch_begin[b];
    const std::int32_t len = lin.batch_length[b];
    CORTEX_CHECK(len > 0) << "empty batch " << b;
    CORTEX_CHECK(begin >= 0 && begin + len <= n) << "batch range oob";
    CORTEX_CHECK(begin + len <= prev_begin || b == 0)
        << "batches must move toward lower ids (bottom-up)";
    prev_begin = begin;
    for (std::int32_t i = begin; i < begin + len; ++i) {
      CORTEX_CHECK(!covered[static_cast<std::size_t>(i)])
          << "node " << i << " in two batches";
      covered[static_cast<std::size_t>(i)] = true;
      ++covered_count;
    }
  }
  CORTEX_CHECK(covered_count == n)
      << "batches cover " << covered_count << " of " << n << " nodes";

  // Leaf batch = exactly the ids >= first_leaf_id.
  CORTEX_CHECK(lin.batch_begin.front() == lin.first_leaf_id &&
               lin.batch_length.front() == lin.num_leaves)
      << "batch 0 must be the leaf batch";

  // Parents numbered lower than children; children computed in an earlier
  // batch (height strictly decreases parent -> child).
  for (std::int64_t v = 0; v < n; ++v) {
    const auto off0 = lin.child_offsets[static_cast<std::size_t>(v)];
    const auto off1 = lin.child_offsets[static_cast<std::size_t>(v) + 1];
    if (off0 == off1) {
      CORTEX_CHECK(lin.is_leaf(static_cast<std::int32_t>(v)))
          << "childless node " << v << " below first_leaf_id";
    }
    for (std::int32_t c = off0; c < off1; ++c) {
      const std::int32_t child = lin.child_ids[static_cast<std::size_t>(c)];
      CORTEX_CHECK(child > v)
          << "child " << child << " not numbered above parent " << v;
      CORTEX_CHECK(lin.height[static_cast<std::size_t>(child)] <
                   lin.height[static_cast<std::size_t>(v)])
          << "child height must be below parent height";
    }
  }

  // exec_order is a topological order: children before parents.
  std::vector<std::int64_t> pos(static_cast<std::size_t>(n), -1);
  CORTEX_CHECK(static_cast<std::int64_t>(lin.exec_order.size()) == n)
      << "exec_order must cover all nodes";
  for (std::size_t i = 0; i < lin.exec_order.size(); ++i)
    pos[static_cast<std::size_t>(lin.exec_order[i])] =
        static_cast<std::int64_t>(i);
  for (std::int64_t v = 0; v < n; ++v) {
    const auto off0 = lin.child_offsets[static_cast<std::size_t>(v)];
    const auto off1 = lin.child_offsets[static_cast<std::size_t>(v) + 1];
    for (std::int32_t c = off0; c < off1; ++c)
      CORTEX_CHECK(
          pos[static_cast<std::size_t>(
              lin.child_ids[static_cast<std::size_t>(c)])] <
          pos[static_cast<std::size_t>(v)])
          << "exec_order violates dependence at node " << v;
  }
}

}  // namespace cortex::linearizer
