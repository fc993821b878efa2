// Fingerprint collision battery: the plan-cache key must change when any
// single compilation-relevant field of (ModelDef, Schedule) changes,
// must NOT change for order-insensitive fields (ModelDef::param_shapes is
// keyed by name), and must be reproducible across
// separate factory constructions of the same model. These properties are
// the correctness contract of exec/plan_cache.hpp: a missed difference
// would silently alias two different compilations.

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "exec/plan_cache.hpp"
#include "models/model_zoo.hpp"
#include "support/fingerprint.hpp"

namespace cortex::exec {
namespace {

support::Fingerprint key(const models::ModelDef& def,
                         const ra::Schedule& sched = ra::Schedule{}) {
  return PlanCache::key_for(def, sched);
}

std::vector<std::pair<const char*,
                      std::function<models::ModelDef(std::int64_t)>>>
zoo_factories() {
  using models::ModelDef;
  return {
      {"TreeFC", [](std::int64_t h) { return models::make_treefc(h); }},
      {"DAG-RNN", [](std::int64_t h) { return models::make_dagrnn(h); }},
      {"TreeGRU", [](std::int64_t h) { return models::make_treegru(h); }},
      {"SimpleTreeGRU",
       [](std::int64_t h) { return models::make_simple_treegru(h); }},
      {"TreeLSTM", [](std::int64_t h) { return models::make_treelstm(h); }},
      {"MV-RNN", [](std::int64_t h) { return models::make_mvrnn(h); }},
      {"TreeRNN", [](std::int64_t h) { return models::make_treernn(h); }},
      {"TreeRNN-fig1",
       [](std::int64_t h) { return models::make_treernn_fig1(h); }},
      {"TreeRNN-zeroleaf",
       [](std::int64_t h) { return models::make_treernn_zeroleaf(h); }},
      {"TreeFC-emb",
       [](std::int64_t h) { return models::make_treefc_embed(h); }},
      {"TreeGRU-emb",
       [](std::int64_t h) { return models::make_treegru_embed(h); }},
      {"TreeLSTM-emb",
       [](std::int64_t h) { return models::make_treelstm_embed(h); }},
      {"SeqLSTM", [](std::int64_t h) { return models::make_seq_lstm(h); }},
      {"SeqGRU", [](std::int64_t h) { return models::make_seq_gru(h); }},
  };
}

// -- reproducibility ---------------------------------------------------------

TEST(Fingerprint, SameFactoryTwiceSameKey) {
  // The property warm cache hits rely on: two independently built
  // ModelDefs for the same model encode identically (isomorphic RA DAGs,
  // identical cells), even though every Expr/Op allocation is fresh.
  for (const auto& [name, make] : zoo_factories()) {
    EXPECT_EQ(key(make(16)), key(make(16))) << name;
  }
}

TEST(Fingerprint, AllZooModelsPairwiseDistinct) {
  const auto factories = zoo_factories();
  std::vector<support::Fingerprint> keys;
  keys.reserve(factories.size());
  for (const auto& [name, make] : factories) keys.push_back(key(make(16)));
  for (std::size_t i = 0; i < keys.size(); ++i)
    for (std::size_t j = i + 1; j < keys.size(); ++j)
      EXPECT_NE(keys[i], keys[j])
          << factories[i].first << " vs " << factories[j].first;
}

TEST(Fingerprint, HiddenSizeChangesKey) {
  for (const auto& [name, make] : zoo_factories())
    EXPECT_NE(key(make(16)), key(make(32))) << name;
}

// -- ModelDef field sensitivity ----------------------------------------------

TEST(Fingerprint, EveryModelDefFieldChangesKey) {
  const models::ModelDef base = models::make_treegru(16);
  const support::Fingerprint k0 = key(base);

  auto mutated = [&](const std::function<void(models::ModelDef&)>& fn) {
    models::ModelDef d = models::make_treegru(16);
    fn(d);
    return key(d);
  };

  EXPECT_NE(k0, mutated([](models::ModelDef& d) { d.name = "x"; }));
  EXPECT_NE(k0, mutated([](models::ModelDef& d) { d.hidden += 1; }));
  EXPECT_NE(k0, mutated([](models::ModelDef& d) { d.vocab += 1; }));
  // Modeled-cost metadata: read from the def by build_plan and the cost
  // model, never from the compiled artifacts, so it stays out of the key.
  EXPECT_EQ(k0,
            mutated([](models::ModelDef& d) { d.sync_points_per_step += 1; }));
  EXPECT_EQ(k0, mutated([](models::ModelDef& d) {
              d.refactor_extra_bytes_per_node += 4;
            }));
  EXPECT_EQ(k0, mutated([](models::ModelDef& d) {
              d.block_local_schedule = true;
            }));
  // Cell program: width change, op-order change, dropped op.
  EXPECT_NE(k0, mutated([](models::ModelDef& d) { d.cell.state_width += 1; }));
  EXPECT_NE(k0, mutated([](models::ModelDef& d) {
              std::swap(d.cell.internal_ops.front(),
                        d.cell.internal_ops.back());
            }));
  EXPECT_NE(k0, mutated([](models::ModelDef& d) {
              d.cell.internal_ops.pop_back();
            }));
  // RA model: dropping it (cell-only engine) and structural edits.
  EXPECT_NE(k0, mutated([](models::ModelDef& d) { d.model.reset(); }));
  EXPECT_NE(k0,
            mutated([](models::ModelDef& d) { d.model->max_children = 3; }));
  EXPECT_NE(k0, mutated([](models::ModelDef& d) {
              d.model->kind = linearizer::StructureKind::kDag;
            }));
  // Param shapes: added entry and changed shape.
  EXPECT_NE(k0, mutated([](models::ModelDef& d) {
              d.param_shapes.push_back({"extra", {2, 2}});
            }));
  EXPECT_NE(k0, mutated([](models::ModelDef& d) {
              d.param_shapes.front().second.push_back(1);
            }));
}

TEST(Fingerprint, ParamShapeOrderIsInsensitive) {
  // param_shapes is a keyed lookup table (the documented order-insensitive
  // field): permuting entries must not change the key.
  models::ModelDef a = models::make_treelstm(16);
  models::ModelDef b = models::make_treelstm(16);
  ASSERT_GT(b.param_shapes.size(), 1u);
  std::reverse(b.param_shapes.begin(), b.param_shapes.end());
  EXPECT_EQ(key(a), key(b));
}

// -- Schedule field sensitivity ----------------------------------------------

TEST(Fingerprint, EveryScheduleFieldChangesKey) {
  const models::ModelDef def = models::make_treegru(16);
  const support::Fingerprint k0 = key(def);

  std::vector<ra::Schedule> mutants;
  for (int field = 0; field < 10; ++field) {
    ra::Schedule s;
    switch (field) {
      case 0: s.dynamic_batching = !s.dynamic_batching; break;
      case 1: s.specialize_leaves = !s.specialize_leaves; break;
      case 2: s.unroll_depth = 2; break;
      case 3: s.refactor = !s.refactor; break;
      case 4:
        s.fusion = s.fusion == ra::FusionLevel::kMaximal
                       ? ra::FusionLevel::kNone
                       : ra::FusionLevel::kMaximal;
        break;
      case 5: s.persistence = !s.persistence; break;
      case 6: s.dense_intermediates = !s.dense_intermediates; break;
      case 7: s.loop_peeling = !s.loop_peeling; break;
      case 8:
        s.improved_barrier_placement = !s.improved_barrier_placement;
        break;
      case 9: s.lock_free_barrier = !s.lock_free_barrier; break;
    }
    EXPECT_NE(s, ra::Schedule{}) << "field " << field << " mutation is a no-op";
    mutants.push_back(s);
    EXPECT_NE(k0, key(def, s)) << "schedule field " << field;
  }
  // And the ten single-field mutants are pairwise distinct keys.
  for (std::size_t i = 0; i < mutants.size(); ++i)
    for (std::size_t j = i + 1; j < mutants.size(); ++j)
      EXPECT_NE(key(def, mutants[i]), key(def, mutants[j]))
          << "fields " << i << " vs " << j;
}

TEST(Fingerprint, ScheduleEqualityIsFieldWise) {
  EXPECT_EQ(ra::Schedule{}, ra::Schedule{});
  ra::Schedule s;
  s.unroll_depth = 2;
  EXPECT_NE(s, ra::Schedule{});
  EXPECT_NE(ra::Schedule::unoptimized(), ra::Schedule{});
  EXPECT_EQ(ra::Schedule::unoptimized(), ra::Schedule::unoptimized());
}

TEST(Fingerprint, ExprEncodingIgnoresSharing) {
  // add(x, x) with one shared node vs two fresh nodes: struct_equal says
  // equal, so the fingerprints must match too.
  const ra::Expr shared = ra::var("x");
  const ra::Expr a = ra::add(shared, shared);
  const ra::Expr b = ra::add(ra::var("x"), ra::var("x"));
  ASSERT_TRUE(ra::struct_equal(a, b));
  support::FingerprintBuilder fa, fb;
  ra::fingerprint(a, fa);
  ra::fingerprint(b, fb);
  EXPECT_EQ(fa.finish(), fb.finish());
}

TEST(Fingerprint, OpEncodingCapturesSharing) {
  // Two reads of ONE placeholder vs reads of two distinct placeholders:
  // operator identity is semantic (the recursion ties a specific
  // placeholder op), so these must encode differently.
  const ra::OpRef ph = ra::placeholder("h", {4});
  const ra::OpRef l1 = ra::child_read("l", ph, 0, 4);
  const ra::OpRef r1 = ra::child_read("r", ph, 1, 4);
  const ra::OpRef sum1 = ra::eltwise(
      "s", ra::add(ra::load("l", {ra::var("n"), ra::var("i")}),
                   ra::load("r", {ra::var("n"), ra::var("i")})),
      {l1, r1}, 4);

  const ra::OpRef ph_b = ra::placeholder("h", {4});
  const ra::OpRef ph_c = ra::placeholder("h", {4});
  const ra::OpRef l2 = ra::child_read("l", ph_b, 0, 4);
  const ra::OpRef r2 = ra::child_read("r", ph_c, 1, 4);
  const ra::OpRef sum2 = ra::eltwise(
      "s", ra::add(ra::load("l", {ra::var("n"), ra::var("i")}),
                   ra::load("r", {ra::var("n"), ra::var("i")})),
      {l2, r2}, 4);

  support::FingerprintBuilder fa, fb;
  ra::fingerprint(sum1, fa);
  ra::fingerprint(sum2, fb);
  EXPECT_NE(fa.finish(), fb.finish());
}

}  // namespace
}  // namespace cortex::exec
