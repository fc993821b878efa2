#include "linearizer/linearizer.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "support/logging.hpp"

namespace cortex::linearizer {

namespace {

/// The wavefront batches, bottom-up: batch h is level group h (tree
/// height or DAG depth), `group_count[h]` nodes. Appendix-B numbering
/// hands out consecutive ids from the tallest group down to group 0, so
/// each batch is a contiguous range, parents sit below their children and
/// the leaves take the top range. Every level from 0 to the tallest is
/// non-empty (a node of level h > 0 has a child of level h - 1), so the
/// batch index is the level.
void set_batches(Linearized& lin, const std::vector<std::int32_t>& group_count) {
  lin.batch_length = group_count;
  lin.batch_begin.assign(group_count.size(), 0);
  std::int32_t next = 0;
  for (std::size_t h = group_count.size(); h-- > 0;) {
    lin.batch_begin[h] = next;
    next += group_count[h];
  }
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
  Linearized lin;
  lin.kind = spec.kind;
  lin.num_nodes = total_nodes;
  lin.max_fanin = 2;
  {
    std::vector<std::int32_t> group_count(
        static_cast<std::size_t>(max_h) + 1, 0);
    for (const std::int32_t h : height_of)
      ++group_count[static_cast<std::size_t>(h)];
    set_batches(lin, group_count);
  }
  lin.num_leaves = lin.batch_length.front();
  lin.first_leaf_id = total_nodes - lin.num_leaves;
  std::vector<std::int32_t> id_of(traversal.size());
  {
    std::vector<std::int32_t> cursor = lin.batch_begin;
    for (std::size_t ti = 0; ti < traversal.size(); ++ti)
      id_of[ti] = cursor[static_cast<std::size_t>(height_of[ti])]++;
  }

  // Pass 3: fill the arrays. Internal ids are [0, first_leaf_id), two
  // children each, so node i's CSR range is [2i, 2i + 2): left, right.
  const auto n_sz = static_cast<std::size_t>(total_nodes);
  const auto internal = static_cast<std::int32_t>(lin.first_leaf_id);
  lin.word.assign(n_sz, -1);
  lin.child_offsets.resize(n_sz + 1);
  for (std::size_t i = 0; i <= n_sz; ++i)
    lin.child_offsets[i] =
        2 * std::min(static_cast<std::int32_t>(i), internal);
  lin.child_ids.resize(2 * static_cast<std::size_t>(internal));
  for (std::size_t ti = 0; ti < traversal.size(); ++ti) {
    const ds::TreeNode* n = traversal[ti];
    const auto i = static_cast<std::size_t>(id_of[ti]);
    if (n->is_leaf()) {
      lin.word[i] = n->word;
    } else {
      lin.child_ids[2 * i] =
          id_of[static_cast<std::size_t>(n->left->lin_scratch)];
      lin.child_ids[2 * i + 1] =
          id_of[static_cast<std::size_t>(n->right->lin_scratch)];
    }
  }
  for (const ds::TreeNode* r : tree_roots)
    lin.roots.push_back(id_of[static_cast<std::size_t>(r->lin_scratch)]);
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

  // Appendix-B numbering by depth group, tallest first; within a group,
  // DAGs in batch order and each DAG's nodes in its own order.
  Linearized lin;
  lin.kind = StructureKind::kDag;
  lin.num_nodes = total_nodes;
  lin.max_fanin = max_fanin;
  {
    std::vector<std::int32_t> group_count(
        static_cast<std::size_t>(max_d) + 1, 0);
    for (const PerDag& p : per)
      for (const std::int32_t dep : p.depth)
        ++group_count[static_cast<std::size_t>(dep)];
    set_batches(lin, group_count);
  }
  lin.num_leaves = lin.batch_length.front();
  lin.first_leaf_id = total_nodes - lin.num_leaves;
  std::vector<std::vector<std::int32_t>> ids(per.size());
  {
    std::vector<std::int32_t> cursor = lin.batch_begin;
    for (std::size_t di = 0; di < per.size(); ++di) {
      ids[di].reserve(per[di].depth.size());
      for (const std::int32_t dep : per[di].depth)
        ids[di].push_back(cursor[static_cast<std::size_t>(dep)]++);
    }
  }

  // CSR children: count each renumbered node's fan-in, prefix-sum, fill.
  const auto n_sz = static_cast<std::size_t>(total_nodes);
  lin.word.resize(n_sz);
  lin.child_offsets.assign(n_sz + 1, 0);
  for (std::size_t di = 0; di < per.size(); ++di) {
    const ds::Dag* d = per[di].dag;
    for (std::int64_t v = 0; v < d->num_nodes(); ++v) {
      const std::int32_t id = ids[di][static_cast<std::size_t>(v)];
      lin.word[static_cast<std::size_t>(id)] = d->word(v);
      lin.child_offsets[static_cast<std::size_t>(id) + 1] =
          static_cast<std::int32_t>(d->preds(v).size());
      if (d->succs(v).empty()) lin.roots.push_back(id);
    }
  }
  for (std::size_t i = 0; i < n_sz; ++i)
    lin.child_offsets[i + 1] += lin.child_offsets[i];
  lin.child_ids.resize(static_cast<std::size_t>(lin.child_offsets[n_sz]));
  for (std::size_t di = 0; di < per.size(); ++di) {
    const ds::Dag* d = per[di].dag;
    for (std::int64_t v = 0; v < d->num_nodes(); ++v) {
      std::int32_t pos = lin.child_offsets[static_cast<std::size_t>(
          ids[di][static_cast<std::size_t>(v)])];
      for (std::int64_t u : d->preds(v))
        lin.child_ids[static_cast<std::size_t>(pos++)] =
            ids[di][static_cast<std::size_t>(u)];
    }
  }
  return lin;
}

std::vector<std::int32_t> node_order(const Linearized& lin) {
  std::vector<std::int32_t> order;
  order.reserve(static_cast<std::size_t>(lin.num_nodes));
  for_each_node(lin, [&](std::int32_t id, std::int32_t) {
    order.push_back(id);
  });
  return order;
}

void check_invariants(const Linearized& lin) {
  const auto n = lin.num_nodes;
  CORTEX_CHECK(n > 0) << "empty linearization";
  CORTEX_CHECK(lin.num_leaves > 0 && lin.first_leaf_id == n - lin.num_leaves)
      << "leaf range inconsistent";
  CORTEX_CHECK(static_cast<std::int64_t>(lin.child_offsets.size()) == n + 1 &&
               lin.child_offsets.front() == 0 &&
               lin.child_offsets.back() ==
                   static_cast<std::int64_t>(lin.child_ids.size()))
      << "CSR offsets must span child_ids";
  CORTEX_CHECK(!lin.batch_begin.empty() &&
               lin.batch_begin.size() == lin.batch_length.size())
      << "batch_begin and batch_length must pair up";

  // Batches must partition [0, n) and appear bottom-up: the leaf batch
  // (highest ids) first, the root batch (id 0) last. batch_of[v] is the
  // batch that computes node v.
  std::vector<std::int32_t> batch_of(static_cast<std::size_t>(n), -1);
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
      CORTEX_CHECK(batch_of[static_cast<std::size_t>(i)] < 0)
          << "node " << i << " in two batches";
      batch_of[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(b);
      ++covered_count;
    }
  }
  CORTEX_CHECK(covered_count == n)
      << "batches cover " << covered_count << " of " << n << " nodes";

  // Leaf batch = exactly the ids >= first_leaf_id.
  CORTEX_CHECK(lin.batch_begin.front() == lin.first_leaf_id &&
               lin.batch_length.front() == lin.num_leaves)
      << "batch 0 must be the leaf batch";

  // Parents numbered lower than children, and every child computed in an
  // earlier batch, so for_each_node visits children before parents.
  for (std::int64_t v = 0; v < n; ++v) {
    const auto off0 = lin.child_offsets[static_cast<std::size_t>(v)];
    const auto off1 = lin.child_offsets[static_cast<std::size_t>(v) + 1];
    if (off0 == off1) {
      CORTEX_CHECK(lin.is_leaf(static_cast<std::int32_t>(v)))
          << "childless node " << v << " below first_leaf_id";
    }
    for (std::int32_t c = off0; c < off1; ++c) {
      const std::int32_t child = lin.child_ids[static_cast<std::size_t>(c)];
      CORTEX_CHECK(child > v && child < n)
          << "child " << child << " not numbered above parent " << v;
      CORTEX_CHECK(batch_of[static_cast<std::size_t>(child)] <
                   batch_of[static_cast<std::size_t>(v)])
          << "child " << child << " is not in an earlier batch than its "
          << "parent " << v;
    }
  }
}

}  // namespace cortex::linearizer
