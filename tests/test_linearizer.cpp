// Data-structure linearizer (§4.2, Appendix B): the numbering-scheme
// invariants, dynamic batches, specialization partitioning, DAG
// wavefronts, and rejection of malformed inputs. Property-style sweeps
// run the full invariant checker over many random workloads.

#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/common.hpp"
#include "ds/generators.hpp"
#include "linearizer/linearizer.hpp"

namespace cortex::linearizer {
namespace {

LinearizerSpec tree_spec() { return {}; }
LinearizerSpec dag_spec() {
  LinearizerSpec s;
  s.kind = StructureKind::kDag;
  return s;
}

// -- property sweep over random workloads --------------------------------------

class LinearizerSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LinearizerSweep, InvariantsHoldOnSstBatches) {
  const auto [seed, batch] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  auto trees = ds::make_sst_like_batch(batch, rng);
  const Linearized lin =
      linearize_trees(baselines::raw(trees), tree_spec());
  ASSERT_NO_THROW(check_invariants(lin));

  // Appendix B: all leaves numbered above all internal nodes, so the
  // leaf check is a single comparison.
  for (std::int64_t v = 0; v < lin.num_nodes; ++v) {
    const bool childless =
        lin.child_offsets[static_cast<std::size_t>(v)] ==
        lin.child_offsets[static_cast<std::size_t>(v) + 1];
    EXPECT_EQ(childless, lin.is_leaf(static_cast<std::int32_t>(v)));
  }
  // Roots: one per tree, in input order, each genuinely a root
  // (no other node points at it).
  EXPECT_EQ(lin.roots.size(), trees.size());
  std::vector<bool> is_child(static_cast<std::size_t>(lin.num_nodes),
                             false);
  for (const std::int32_t c : lin.child_ids)
    is_child[static_cast<std::size_t>(c)] = true;
  for (const std::int32_t r : lin.roots)
    EXPECT_FALSE(is_child[static_cast<std::size_t>(r)]);
  // Totals.
  std::int64_t leaves = 0;
  for (const auto& t : trees) leaves += t->num_leaves();
  EXPECT_EQ(lin.num_leaves, leaves);
}

TEST_P(LinearizerSweep, WordMultisetPreserved) {
  const auto [seed, batch] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) + 1000);
  auto trees = ds::make_sst_like_batch(batch, rng);
  const Linearized lin =
      linearize_trees(baselines::raw(trees), tree_spec());
  std::vector<std::int32_t> lin_words;
  for (const std::int32_t w : lin.word)
    if (w >= 0) lin_words.push_back(w);
  std::vector<std::int32_t> tree_words;
  for (const auto& t : trees) {
    std::function<void(const ds::TreeNode*)> rec =
        [&](const ds::TreeNode* n) {
          if (n->is_leaf()) {
            tree_words.push_back(n->word);
          } else {
            rec(n->left);
            rec(n->right);
          }
        };
    rec(t->root());
  }
  std::sort(lin_words.begin(), lin_words.end());
  std::sort(tree_words.begin(), tree_words.end());
  EXPECT_EQ(lin_words, tree_words);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, LinearizerSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 11, 99),
                       ::testing::Values(1, 2, 10)));

// -- structural specifics -------------------------------------------------------

TEST(Linearizer, PerfectTreeBatchesAreLevels) {
  Rng rng(1);
  auto t = ds::make_perfect_tree(3, rng);
  std::vector<const ds::Tree*> batch = {t.get()};
  const Linearized lin = linearize_trees(batch, tree_spec());
  EXPECT_EQ(lin.num_nodes, 15);
  EXPECT_EQ(lin.num_leaves, 8);
  EXPECT_EQ(lin.first_leaf_id, 7);
  ASSERT_EQ(lin.num_batches(), 4);  // heights 0..3
  EXPECT_EQ(lin.batch_length[0], 8);
  EXPECT_EQ(lin.batch_length[1], 4);
  EXPECT_EQ(lin.batch_length[2], 2);
  EXPECT_EQ(lin.batch_length[3], 1);
  // Root is node 0 (numbered first, from the tallest group).
  EXPECT_EQ(lin.roots.front(), 0);
  check_invariants(lin);
}

TEST(Linearizer, ChildrenResolveCorrectlyOnKnownTree) {
  // ((a b) c): root children are the internal (a b) node and leaf c.
  ds::Tree t;
  auto* a = t.make_leaf(10);
  auto* b = t.make_leaf(20);
  auto* ab = t.make_internal(a, b);
  auto* c = t.make_leaf(30);
  t.set_root(t.make_internal(ab, c));
  std::vector<const ds::Tree*> batch = {&t};
  const Linearized lin = linearize_trees(batch, tree_spec());
  // ids: root=0 (height 2), ab=1 (height 1), leaves 2..4 (height 0).
  // Internal node i's children are child_ids[2i] (left), [2i+1] (right).
  ASSERT_EQ(lin.child_offsets,
            (std::vector<std::int32_t>{0, 2, 4, 4, 4, 4}));
  EXPECT_EQ(lin.child_ids[0], 1);
  EXPECT_TRUE(lin.is_leaf(lin.child_ids[1]));
  EXPECT_EQ(lin.word[static_cast<std::size_t>(lin.child_ids[1])], 30);
  EXPECT_EQ(lin.word[static_cast<std::size_t>(lin.child_ids[2])], 10);
  EXPECT_EQ(lin.word[static_cast<std::size_t>(lin.child_ids[3])], 20);
}

TEST(Linearizer, ForestNumbersAllTrees) {
  Rng rng(8);
  auto t1 = ds::make_perfect_tree(2, rng);
  auto t2 = ds::make_perfect_tree(4, rng);
  std::vector<const ds::Tree*> batch = {t1.get(), t2.get()};
  const Linearized lin = linearize_trees(batch, tree_spec());
  EXPECT_EQ(lin.num_nodes, 7 + 31);
  EXPECT_EQ(lin.roots.size(), 2u);
  // Heights differ, so the two roots land in different batches but both
  // precede their descendants in id order.
  check_invariants(lin);
}

TEST(Linearizer, GridDagWavefrontsAreAntidiagonals) {
  Rng rng(2);
  auto d = ds::make_grid_dag(3, 3, rng);
  std::vector<const ds::Dag*> batch = {d.get()};
  const Linearized lin = linearize_dags(batch, dag_spec());
  EXPECT_EQ(lin.num_nodes, 9);
  ASSERT_EQ(lin.num_batches(), 5);  // depths 0..4
  EXPECT_EQ(lin.batch_length[0], 1);
  EXPECT_EQ(lin.batch_length[1], 2);
  EXPECT_EQ(lin.batch_length[2], 3);
  EXPECT_EQ(lin.batch_length[3], 2);
  EXPECT_EQ(lin.batch_length[4], 1);
  EXPECT_EQ(lin.num_leaves, 1);  // single source (0,0)
  // One sink: node (2,2).
  EXPECT_EQ(lin.roots.size(), 1u);
  check_invariants(lin);
}

TEST(Linearizer, DagVariableFaninLandsInCsr) {
  ds::Dag d(4);
  d.set_word(0, 1);
  d.set_word(1, 2);
  d.set_word(2, 3);
  d.set_word(3, 4);
  d.add_edge(0, 3);
  d.add_edge(1, 3);
  d.add_edge(2, 3);
  std::vector<const ds::Dag*> batch = {&d};
  const Linearized lin = linearize_dags(batch, dag_spec());
  EXPECT_EQ(lin.max_fanin, 3);
  // Sink has 3 children in the CSR arrays.
  const std::int32_t sink = lin.roots.front();
  EXPECT_EQ(lin.child_offsets[static_cast<std::size_t>(sink) + 1] -
                lin.child_offsets[static_cast<std::size_t>(sink)],
            3);
  check_invariants(lin);
}

TEST(Linearizer, DagBatchSweepInvariants) {
  for (const int seed : {1, 2, 3}) {
    Rng rng(static_cast<std::uint64_t>(seed));
    std::vector<std::unique_ptr<ds::Dag>> dags;
    for (int i = 0; i < 10; ++i)
      dags.push_back(ds::make_grid_dag(10, 10, rng));
    const Linearized lin =
        linearize_dags(baselines::raw(dags), dag_spec());
    EXPECT_EQ(lin.num_nodes, 1000);
    EXPECT_EQ(lin.num_batches(), 19);  // shared wavefront depths
    check_invariants(lin);
  }
}

// -- the batch invariant and the node order --------------------------------------

/// Every structure kind the linearizer takes: chains, SST-like trees,
/// perfect trees and grid DAGs.
std::vector<Linearized> structure_zoo() {
  Rng rng(21);
  std::vector<Linearized> out;
  for (const std::int64_t len : {1, 2, 17}) {
    auto chain = ds::make_chain_tree(len, rng);
    out.push_back(linearize_trees({chain.get()}, tree_spec()));
  }
  auto sst = ds::make_sst_like_batch(8, rng);
  out.push_back(linearize_trees(baselines::raw(sst), tree_spec()));
  for (const std::int64_t depth : {0, 1, 5}) {
    auto perfect = ds::make_perfect_tree(depth, rng);
    out.push_back(linearize_trees({perfect.get()}, tree_spec()));
  }
  std::vector<std::unique_ptr<ds::Dag>> grids;
  for (const std::int64_t side : {1, 2, 6})
    grids.push_back(ds::make_grid_dag(side, side + 1, rng));
  out.push_back(linearize_dags(baselines::raw(grids), dag_spec()));
  return out;
}

TEST(Linearizer, InvariantsHoldOnEveryStructureKind) {
  for (const Linearized& lin : structure_zoo()) {
    SCOPED_TRACE(lin.num_nodes);
    EXPECT_NO_THROW(check_invariants(lin));
  }
}

TEST(Linearizer, NodeOrderIsBatchesBottomUpAscendingIds) {
  for (const Linearized& lin : structure_zoo()) {
    SCOPED_TRACE(lin.num_nodes);
    const std::vector<std::int32_t> order = node_order(lin);
    ASSERT_EQ(static_cast<std::int64_t>(order.size()), lin.num_nodes);
    // Every node once, batch by batch, each batch's ids ascending, and
    // children before parents.
    std::vector<std::int64_t> pos(order.size(), -1);
    std::size_t k = 0;
    std::int32_t prev_id = -1;
    std::int32_t prev_batch = -1;
    for_each_node(lin, [&](std::int32_t id, std::int32_t batch) {
      const auto b = static_cast<std::size_t>(batch);
      EXPECT_GE(id, lin.batch_begin[b]);
      EXPECT_LT(id, lin.batch_begin[b] + lin.batch_length[b]);
      if (batch == prev_batch)
        EXPECT_EQ(id, prev_id + 1);
      else
        EXPECT_EQ(batch, prev_batch + 1);
      EXPECT_EQ(order[k], id);
      EXPECT_EQ(pos[static_cast<std::size_t>(id)], -1) << "visited twice";
      pos[static_cast<std::size_t>(id)] = static_cast<std::int64_t>(k++);
      prev_id = id;
      prev_batch = batch;
    });
    for (std::int64_t v = 0; v < lin.num_nodes; ++v)
      for (std::int32_t c = lin.child_offsets[static_cast<std::size_t>(v)];
           c < lin.child_offsets[static_cast<std::size_t>(v) + 1]; ++c)
        EXPECT_LT(pos[static_cast<std::size_t>(
                      lin.child_ids[static_cast<std::size_t>(c)])],
                  pos[static_cast<std::size_t>(v)]);
  }
}

/// A two-leaf, two-internal linearization whose batches are well formed:
/// leaves {2, 3} in batch 0, internals {0, 1} in batch 1, node 1's
/// children {2, 3} and node 0's children {first_kid, second_kid}.
Linearized hand_built(std::int32_t first_kid, std::int32_t second_kid) {
  Linearized lin;
  lin.num_nodes = 4;
  lin.num_leaves = 2;
  lin.first_leaf_id = 2;
  lin.child_offsets = {0, 2, 4, 4, 4};
  lin.child_ids = {first_kid, second_kid, 2, 3};
  lin.word = {-1, -1, 7, 8};
  lin.roots = {0};
  lin.batch_begin = {2, 0};
  lin.batch_length = {2, 2};
  return lin;
}

TEST(Linearizer, CheckInvariantsRejectsChildInItsParentsBatch) {
  // Node 0 reading leaves is fine...
  EXPECT_NO_THROW(check_invariants(hand_built(2, 3)));
  // ...but node 1 sits in node 0's own batch: the batched executor would
  // read it before it is computed.
  EXPECT_THROW(check_invariants(hand_built(1, 3)), Error);
}

// -- failure injection ----------------------------------------------------------

TEST(Linearizer, RejectsEmptyBatch) {
  std::vector<const ds::Tree*> empty;
  EXPECT_THROW(linearize_trees(empty, tree_spec()), Error);
  std::vector<const ds::Dag*> empty_dags;
  EXPECT_THROW(linearize_dags(empty_dags, dag_spec()), Error);
}

TEST(Linearizer, RejectsSpecMismatch) {
  Rng rng(1);
  auto t = ds::make_perfect_tree(2, rng);
  std::vector<const ds::Tree*> batch = {t.get()};
  EXPECT_THROW(linearize_trees(batch, dag_spec()), Error);
  auto d = ds::make_grid_dag(2, 2, rng);
  std::vector<const ds::Dag*> dbatch = {d.get()};
  EXPECT_THROW(linearize_dags(dbatch, tree_spec()), Error);
}

TEST(Linearizer, RejectsUnaryMaxChildren) {
  Rng rng(1);
  auto t = ds::make_perfect_tree(2, rng);
  std::vector<const ds::Tree*> batch = {t.get()};
  LinearizerSpec s;
  s.max_children = 1;
  EXPECT_THROW(linearize_trees(batch, s), Error);
}

TEST(Linearizer, RejectsMalformedTree) {
  ds::Tree t;
  auto* a = t.make_leaf(1);
  auto* b = t.make_leaf(2);
  auto* ab = t.make_internal(a, b);
  t.set_root(t.make_internal(ab, a));  // shared node
  std::vector<const ds::Tree*> batch = {&t};
  EXPECT_THROW(linearize_trees(batch, tree_spec()), Error);
}

TEST(Linearizer, RejectsCyclicDag) {
  ds::Dag d(2);
  d.add_edge(0, 1);
  d.add_edge(1, 0);
  std::vector<const ds::Dag*> batch = {&d};
  EXPECT_THROW(linearize_dags(batch, dag_spec()), Error);
}

}  // namespace
}  // namespace cortex::linearizer
