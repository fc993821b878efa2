// RA lowering (§4): the running example lowers to the Listing-2 loop
// structure, specialization produces separate leaf/internal nests vs the
// §5.2 conditional operator, hoisting/constant propagation classify
// (LoweredModel::leaf_hoist) and transform the leaf branch (§4.3), and
// temporaries are materialized.

#include <gtest/gtest.h>

#include "lowering/lower.hpp"
#include "models/model_zoo.hpp"

namespace cortex::lowering {
namespace {

std::int64_t count_kind(const ilir::Stmt& s, ilir::StmtKind k) {
  std::int64_t n = 0;
  ilir::visit(s, [&](const ilir::Stmt& t) {
    if (t->kind == k) ++n;
  });
  return n;
}

TEST(Lowering, RunningExampleMatchesListing2Structure) {
  const models::ModelDef def = models::make_treernn_fig1(8);
  const LoweredModel lm = lower(*def.model, ra::Schedule{});
  EXPECT_EQ(lm.output, "rnn");
  // Listing 2: lh and rh are materialized temporaries.
  EXPECT_EQ(lm.temporaries, (std::vector<std::string>{"lh", "rh"}));
  EXPECT_EQ(lm.leaf_hoist, LeafHoist::kNone);  // leaves read embeddings

  const std::string s = ilir::to_string(lm.program);
  // Separate specialized leaf nest over the leaf range...
  EXPECT_NE(s.find("leaf batch (specialized)"), std::string::npos);
  EXPECT_NE(s.find("num_leaves"), std::string::npos);
  // ...then batch loops with variable bounds + indirect accesses.
  EXPECT_NE(s.find("internal batches (dynamic batching)"), std::string::npos);
  EXPECT_NE(s.find("batch_length"), std::string::npos);
  EXPECT_NE(s.find("rnn[left[node],i]"), std::string::npos);
  EXPECT_NE(s.find("rnn[right[node],i]"), std::string::npos);
  // No conditional operator in the specialized form.
  EXPECT_EQ(count_kind(lm.program.body, ilir::StmtKind::kIf), 0);
}

TEST(Lowering, UnspecializedFormCarriesConditionalOperator) {
  const models::ModelDef def = models::make_treernn_fig1(8);
  ra::Schedule sched;
  sched.specialize_leaves = false;
  const LoweredModel lm = lower(*def.model, sched);
  // §5.2: one conditional operator guards the two branch bodies.
  EXPECT_EQ(count_kind(lm.program.body, ilir::StmtKind::kIf), 1);
}

TEST(Lowering, NoDynamicBatchingIteratesExecOrder) {
  const models::ModelDef def = models::make_treernn_fig1(8);
  ra::Schedule sched;
  sched.dynamic_batching = false;
  const LoweredModel lm = lower(*def.model, sched);
  const std::string s = ilir::to_string(lm.program);
  EXPECT_NE(s.find("exec_order"), std::string::npos);
  EXPECT_EQ(s.find("batch_length"), std::string::npos);
}

TEST(Lowering, SingleFormulaModelHasNoBranches) {
  const models::ModelDef def = models::make_dagrnn(8);
  const LoweredModel lm = lower(*def.model, ra::Schedule{});
  EXPECT_EQ(count_kind(lm.program.body, ilir::StmtKind::kIf), 0);
  const std::string s = ilir::to_string(lm.program);
  EXPECT_NE(s.find("single-formula"), std::string::npos);
  EXPECT_EQ(lm.lin_spec.kind, linearizer::StructureKind::kDag);
}

// -- §4.3 hoisting / constant propagation ---------------------------------------

TEST(Hoisting, ClassifiesEmbeddingLeavesAsNone) {
  const models::ModelDef def = models::make_treernn_fig1(8);
  EXPECT_EQ(lower(*def.model, ra::Schedule{}).leaf_hoist, LeafHoist::kNone);
}

TEST(Hoisting, ClassifiesZeroLeavesAsZeroInit) {
  const models::ModelDef def = models::make_treernn_zeroleaf(8);
  const LoweredModel lm = lower(*def.model, ra::Schedule{});
  EXPECT_EQ(lm.leaf_hoist, LeafHoist::kZeroInit);
  const std::string s = ilir::to_string(lm.program);
  EXPECT_NE(s.find("constant propagation"), std::string::npos);
}

TEST(Hoisting, ClassifiesUniformNonZeroLeavesAsHoisted) {
  const models::ModelDef def = models::make_treefc(8);
  const LoweredModel lm = lower(*def.model, ra::Schedule{});
  EXPECT_EQ(lm.leaf_hoist, LeafHoist::kHoisted);
  // The hoisted value gets its own (node-independent) buffer, computed
  // once before the recursion loops.
  EXPECT_NE(lm.program.find_buffer("hoisted_leaf"), nullptr);
  const std::string s = ilir::to_string(lm.program);
  EXPECT_NE(s.find("hoisted node-independent leaf computation"),
            std::string::npos);
}

TEST(Hoisting, DagModelClassifiesAsNone) {
  const models::ModelDef def = models::make_dagrnn(8);
  EXPECT_EQ(lower(*def.model, ra::Schedule{}).leaf_hoist, LeafHoist::kNone);
}

// -- program plumbing -------------------------------------------------------------

TEST(Lowering, BuffersCoverInputsOutputAndTemporaries) {
  const models::ModelDef def = models::make_treelstm(8);
  const LoweredModel lm = lower(*def.model, ra::Schedule{});
  // All weights appear as buffers with concrete shapes.
  for (const auto& [name, shape] : def.param_shapes) {
    const ilir::Buffer* b = lm.program.find_buffer(name);
    ASSERT_NE(b, nullptr) << name;
    EXPECT_EQ(b->shape.size(), shape.size());
  }
  // The recursion output is a (N, state) buffer with named dimensions.
  const ilir::Buffer* out = lm.program.find_buffer(lm.output);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->dims,
            (std::vector<std::string>{"d_node", "d_hidden"}));
  // Bounds inference resolved every buffer shape.
  for (const ilir::Buffer& b : lm.program.buffers)
    EXPECT_FALSE(b.shape.empty()) << b.name;
}

TEST(Lowering, DependenceCarryingLoopIsMarked) {
  const models::ModelDef def = models::make_treernn_fig1(8);
  const LoweredModel lm = lower(*def.model, ra::Schedule{});
  std::int64_t carrying = 0, node_loops = 0;
  ilir::visit(lm.program.body, [&](const ilir::Stmt& s) {
    if (s->kind != ilir::StmtKind::kFor) return;
    if (s->carries_dependence) ++carrying;
    if (s->is_node_loop) ++node_loops;
  });
  // Exactly the batch loop carries the inter-batch dependence (§A.4);
  // the leaf nest and the per-batch nest are node loops.
  EXPECT_EQ(carrying, 1);
  EXPECT_EQ(node_loops, 2);
}

TEST(Lowering, RejectsIllegalScheduleCombinations) {
  const models::ModelDef dag = models::make_dagrnn(8);
  ra::Schedule s;
  s.unroll_depth = 2;
  s.persistence = false;
  EXPECT_THROW(lower(*dag.model, s), Error);
}

}  // namespace
}  // namespace cortex::lowering
