// Build/link-surface guard: asserts the public entry points that
// examples/quickstart.cpp depends on (ModelDef -> Schedule ->
// CortexEngine::run) link against the cortex library target and run end
// to end on a tiny tree. If a refactor breaks the library's link
// surface, this suite fails before any example bitrots.

#include <gtest/gtest.h>

#include <vector>

#include "baselines/eager.hpp"
#include "ds/tree.hpp"
#include "exec/engine.hpp"
#include "exec/plan.hpp"
#include "ilir/codegen_c.hpp"
#include "models/model_zoo.hpp"

namespace cortex {
namespace {

// The parse tree of "It is a dog ." from Fig. 1, as in quickstart.
ds::Tree make_fig1_tree() {
  ds::Tree tree;
  ds::TreeNode* it_ = tree.make_leaf(0);
  ds::TreeNode* is_ = tree.make_leaf(1);
  ds::TreeNode* a_ = tree.make_leaf(2);
  ds::TreeNode* dog = tree.make_leaf(3);
  ds::TreeNode* dot = tree.make_leaf(4);
  ds::TreeNode* np = tree.make_internal(a_, dog);
  ds::TreeNode* vp = tree.make_internal(is_, np);
  ds::TreeNode* s = tree.make_internal(it_, vp);
  tree.set_root(tree.make_internal(s, dot));
  return tree;
}

TEST(BuildSanity, QuickstartEntryPointsLinkAndRun) {
  const ds::Tree tree = make_fig1_tree();

  const std::int64_t hidden = 8;
  const models::ModelDef def = models::make_treernn_fig1(hidden);
  EXPECT_FALSE(def.name.empty());
  EXPECT_FALSE(def.model->topo_ops().empty());

  ra::Schedule schedule;
  Rng rng(2024);
  const models::ModelParams params = models::init_params(def, rng);
  exec::CortexEngine engine(def, params, schedule,
                            runtime::DeviceSpec::v100_gpu());

  // The compile-side surface quickstart prints from.
  EXPECT_FALSE(
      exec::build_plan(def, schedule, runtime::DeviceSpec::v100_gpu())
          .describe()
          .empty());
  EXPECT_FALSE(ilir::to_string(engine.lowered()->program).empty());
  EXPECT_FALSE(ilir::codegen_c(engine.lowered()->program).empty());

  const std::vector<const ds::Tree*> batch = {&tree};
  const runtime::RunResult r = engine.run(batch);
  ASSERT_EQ(r.root_states.size(), 1u);
  ASSERT_EQ(static_cast<std::int64_t>(r.root_states.front().size()), hidden);

  // The eager baseline shares the link surface and must agree bit-for-bit
  // (quickstart's "Outputs match" line).
  baselines::EagerEngine eager(def, params, runtime::DeviceSpec::v100_gpu());
  const runtime::RunResult e = eager.run(batch);
  EXPECT_EQ(r.root_states, e.root_states);
}

}  // namespace
}  // namespace cortex
