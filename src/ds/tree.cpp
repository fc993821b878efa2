#include "ds/tree.hpp"

#include <algorithm>
#include <utility>

namespace cortex::ds {

TreeNode* Tree::make_leaf(std::int32_t word) {
  CORTEX_CHECK(word >= 0) << "leaf word id must be >= 0, got " << word;
  nodes_.push_back(std::make_unique<TreeNode>());
  nodes_.back()->word = word;
  return nodes_.back().get();
}

TreeNode* Tree::make_internal(TreeNode* left, TreeNode* right) {
  CORTEX_CHECK(left != nullptr && right != nullptr)
      << "internal node needs two children";
  nodes_.push_back(std::make_unique<TreeNode>());
  nodes_.back()->left = left;
  nodes_.back()->right = right;
  return nodes_.back().get();
}

std::int64_t Tree::num_leaves() const {
  std::int64_t n = 0;
  for (const auto& node : nodes_)
    if (node->is_leaf()) ++n;
  return n;
}

std::int64_t Tree::height() const {
  CORTEX_CHECK(root_ != nullptr) << "height() on empty tree";
  // Iterative post-order: a chain's depth grows with its length, so
  // recursing per level would overflow the stack on a long one.
  std::int64_t max_h = 0;
  std::vector<std::pair<const TreeNode*, std::int64_t>> stack{{root_, 0}};
  while (!stack.empty()) {
    const auto [n, depth] = stack.back();
    stack.pop_back();
    max_h = std::max(max_h, depth);
    if (n->is_leaf()) continue;
    stack.emplace_back(n->left, depth + 1);
    stack.emplace_back(n->right, depth + 1);
  }
  return max_h;
}

void Tree::validate() const {
  // Runs on the linearization latency path (§7.5), so it is O(N) with no
  // hashing: the tree owns its nodes, letting the visited mark live in
  // each node's scratch slot (reset first, then marked by the walk). An
  // explicit stack instead of recursion, so a deep chain cannot overflow
  // the thread's stack.
  CORTEX_CHECK(root_ != nullptr) << "tree has no root";
  for (const auto& node : nodes_) node->lin_scratch = -1;
  std::int64_t reached = 0;
  std::vector<const TreeNode*> stack{root_};
  while (!stack.empty()) {
    const TreeNode* n = stack.back();
    stack.pop_back();
    CORTEX_CHECK(n->lin_scratch == -1)
        << "node reachable twice: structure is a DAG, not a tree";
    n->lin_scratch = 0;
    ++reached;
    const bool has_l = n->left != nullptr;
    const bool has_r = n->right != nullptr;
    CORTEX_CHECK(has_l == has_r)
        << "internal node must have exactly two children";
    if (has_l) {
      stack.push_back(n->right);
      stack.push_back(n->left);
    } else {
      CORTEX_CHECK(n->word >= 0) << "leaf without word id";
    }
  }
  CORTEX_CHECK(reached == num_nodes())
      << "unreachable nodes present: " << reached << " reachable of "
      << num_nodes();
}

}  // namespace cortex::ds
