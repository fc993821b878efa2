// EnginePool differential battery: a pooled run must be bit-identical to
// a single engine's run() over the same mini-batch — across the model
// zoo, schedules, worker counts and batch sizes (empty, 1, prime, more
// than the workers, far fewer than the workers) — with submission order
// preserved and an empty batch returning an empty RunResult (regression
// for the PR 3 empty-batch UB class). Plus the sharding-plan contract,
// artifact sharing across workers, and shard metadata.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "baselines/common.hpp"
#include "ds/generators.hpp"
#include "exec/engine_pool.hpp"
#include "exec/plan_cache.hpp"
#include "models/model_zoo.hpp"

namespace cortex::exec {
namespace {

runtime::DeviceSpec gpu() { return runtime::DeviceSpec::v100_gpu(); }

bool is_dag(const models::ModelDef& def) {
  return def.kind() == linearizer::StructureKind::kDag;
}

bool is_seq(const models::ModelDef& def) {
  return def.name.rfind("Seq", 0) == 0;
}

/// Structure batch matched to the model family. Embedding-leaf models
/// with per-tree distinct words dominate the zoo here so that a dropped,
/// duplicated or reordered entry cannot produce an accidentally-equal
/// state vector.
struct Batch {
  std::vector<std::unique_ptr<ds::Tree>> trees;
  std::vector<std::unique_ptr<ds::Dag>> dags;
};

Batch make_batch(const models::ModelDef& def, std::int64_t n,
                 std::uint64_t seed) {
  Rng rng(seed);
  Batch b;
  if (is_dag(def)) {
    for (std::int64_t i = 0; i < n; ++i)
      b.dags.push_back(ds::make_grid_dag(3 + rng.next_below(3),
                                         3 + rng.next_below(3), rng));
  } else if (is_seq(def)) {
    for (std::int64_t i = 0; i < n; ++i)
      b.trees.push_back(ds::make_chain_tree(2 + rng.next_below(6), rng));
  } else {
    for (std::int64_t i = 0; i < n; ++i)
      b.trees.push_back(
          ds::make_random_parse_tree(1 + rng.next_below(8), rng));
  }
  return b;
}

// Dispatch on the model kind, not on b.dags.empty(): an empty DAG batch
// must still go through the DAG overload (the kind guard fires first).
runtime::RunResult run_single(CortexEngine& engine,
                              const models::ModelDef& def, const Batch& b) {
  return is_dag(def) ? engine.run(baselines::raw(b.dags))
                     : engine.run(baselines::raw(b.trees));
}

runtime::RunResult run_pooled(EnginePool& pool, const models::ModelDef& def,
                              const Batch& b) {
  return is_dag(def) ? pool.run(baselines::raw(b.dags))
                     : pool.run(baselines::raw(b.trees));
}

// -- differential battery: zoo × schedules × batch sizes × worker counts -----

class PoolZoo : public ::testing::TestWithParam<int> {
 protected:
  models::ModelDef def() const {
    switch (GetParam()) {
      case 0: return models::make_treernn_fig1(16);
      case 1: return models::make_treefc_embed(16);
      case 2: return models::make_treegru_embed(16);
      case 3: return models::make_treelstm_embed(16);
      case 4: return models::make_mvrnn(8);
      case 5: return models::make_dagrnn(16);
      case 6: return models::make_seq_lstm(12);
      default: return models::make_treernn(16);
    }
  }
};

TEST_P(PoolZoo, PooledBitIdenticalToSingleEngineAcrossBatchAndWorkers) {
  const models::ModelDef def = this->def();
  Rng prng(41);
  const models::ModelParams params = models::init_params(def, prng);

  std::vector<ra::Schedule> schedules;
  schedules.push_back(ra::Schedule{});
  schedules.push_back(ra::Schedule::unoptimized());

  // Batch sizes: empty, single, prime, larger than every worker count
  // tried, and (with workers up to 7) far fewer than the workers.
  const std::int64_t batches[] = {0, 1, 2, 5, 13};
  const int workers[] = {1, 2, 4, 7};

  for (const ra::Schedule& sched : schedules) {
    CortexEngine single(def, params, sched, gpu());
    single.set_num_threads(1);
    for (const std::int64_t n : batches) {
      SCOPED_TRACE(def.name + " " + ra::to_string(sched) + " batch " +
                   std::to_string(n));
      const Batch b = make_batch(def, n, 97 + static_cast<std::uint64_t>(n));
      const runtime::RunResult ref = run_single(single, def, b);

      for (const int w : workers) {
        SCOPED_TRACE("workers " + std::to_string(w));
        EnginePool pool(def, params, sched, gpu(),
                        EnginePoolOptions{w});
        const runtime::RunResult out = run_pooled(pool, def, b);
        // Bit-identical outputs, order preserved (vector == is elementwise
        // and ordered), at every worker count.
        EXPECT_EQ(out.root_states, ref.root_states);
        if (n == 0) {
          EXPECT_TRUE(out.root_states.empty());
          EXPECT_TRUE(out.shards.empty());
          EXPECT_EQ(out.peak_memory_bytes, 0);
          EXPECT_DOUBLE_EQ(out.profiler.modeled_latency_ns(), 0.0);
        } else {
          EXPECT_EQ(out.shards.size(), EnginePool::shard_plan(n, w).size());
          std::int64_t covered = 0;
          for (const runtime::ShardRecord& s : out.shards) {
            EXPECT_EQ(s.batch_begin, covered);
            covered += s.batch_size;
            EXPECT_GE(s.worker, 0);
            EXPECT_LT(s.worker, w);
            EXPECT_GT(s.run_ns, 0.0);
          }
          EXPECT_EQ(covered, n);
          EXPECT_GT(out.profiler.numerics_host_ns, 0.0);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, PoolZoo, ::testing::Range(0, 8));

// -- empty batch & kind guards ----------------------------------------------

TEST(EnginePoolEmpty, EmptyBatchReturnsEmptyResult) {
  const models::ModelDef def = models::make_treelstm_embed(16);
  Rng prng(1);
  const models::ModelParams params = models::init_params(def, prng);
  EnginePool pool(def, params, ra::Schedule{}, gpu(),
                  EnginePoolOptions{4});
  const runtime::RunResult r = pool.run(std::vector<const ds::Tree*>{});
  EXPECT_TRUE(r.root_states.empty());
  EXPECT_TRUE(r.shards.empty());
  EXPECT_EQ(r.profiler.kernel_launches, 0);
  EXPECT_EQ(r.peak_memory_bytes, 0);
  EXPECT_DOUBLE_EQ(r.profiler.modeled_latency_ns(), 0.0);
}

TEST(EnginePoolEmpty, KindGuardFiresBeforeEmptyReturnLikeTheEngine) {
  // CortexEngine::run checks the structure kind before the empty-batch
  // return; the pool must agree on every input, empty ones included.
  const models::ModelDef def = models::make_dagrnn(16);
  Rng prng(2);
  const models::ModelParams params = models::init_params(def, prng);
  EnginePool pool(def, params, ra::Schedule{}, gpu(),
                  EnginePoolOptions{2});
  EXPECT_THROW(pool.run(std::vector<const ds::Tree*>{}), Error);
  EXPECT_THROW(pool.run(std::vector<std::unique_ptr<ds::Tree>>{}), Error);

  const models::ModelDef tree_def = models::make_treelstm_embed(16);
  const models::ModelParams tree_params = models::init_params(tree_def, prng);
  EnginePool tree_pool(tree_def, tree_params, ra::Schedule{}, gpu(),
                       EnginePoolOptions{2});
  EXPECT_THROW(tree_pool.run(std::vector<const ds::Dag*>{}), Error);
}

TEST(EnginePoolKind, CellOnlyModelRejectsDagsBeforeLinearizing) {
  // A cell-only model (no RA definition) runs over trees, as the batch
  // server's admission check assumes: the engine and the pool reject a
  // DAG batch with the kind error before linearizing it, so an empty
  // batch throws too and a grid DAG never reaches the cell.
  models::ModelDef def = models::make_seq_lstm(16);
  def.model.reset();
  Rng prng(3);
  const models::ModelParams params = models::init_params(def, prng);
  CortexEngine engine(def, params, ra::Schedule{}, gpu());
  EnginePool pool(def, params, ra::Schedule{}, gpu(), EnginePoolOptions{2});
  const auto dag = ds::make_grid_dag(3, 3, prng);
  const auto expect_kind_error = [](const std::function<void()>& run) {
    try {
      run();
      ADD_FAILURE() << "a DAG batch ran on a tree model";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("expects tree inputs, not DAGs"),
                std::string::npos)
          << e.what();
    }
  };
  for (const std::vector<const ds::Dag*>& dags :
       {std::vector<const ds::Dag*>{dag.get()},
        std::vector<const ds::Dag*>{}}) {
    expect_kind_error([&] { engine.run(dags); });
    expect_kind_error([&] { pool.run(dags); });
  }
}

// -- worker engines share one compiled artifact -------------------------------

TEST(EnginePoolArtifacts, WorkersShareArtifactsByPointerWhenCacheOn) {
  PlanCache& cache = PlanCache::instance();
  cache.set_enabled(true);
  cache.set_capacity(0);
  cache.clear();
  const models::ModelDef def = models::make_treegru_embed(16);
  Rng prng(3);
  const models::ModelParams params = models::init_params(def, prng);
  EnginePool pool(def, params, ra::Schedule{}, gpu(),
                  EnginePoolOptions{4});
  // One compile, three warm hits; every worker runs off the same object.
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 3);
  for (int w = 1; w < pool.num_workers(); ++w)
    EXPECT_EQ(pool.engine(w).artifacts().get(),
              pool.engine(0).artifacts().get());
  // Workers default to serial wavefront numerics: the pool parallelizes
  // across shards, so nested per-engine pools would only oversubscribe.
  for (int w = 0; w < pool.num_workers(); ++w)
    EXPECT_EQ(pool.engine(w).num_threads(), 1);
  cache.clear();
}

// -- sharding plan contract ---------------------------------------------------

TEST(EnginePoolShardPlan, CoversInOrderWithNearEvenSizes) {
  const auto shards = EnginePool::shard_plan(13, 4);
  ASSERT_EQ(shards.size(), 4u);
  std::int64_t covered = 0;
  for (const auto& s : shards) {
    EXPECT_EQ(s.begin, covered);
    EXPECT_GT(s.end, s.begin);
    covered = s.end;
    EXPECT_GE(s.end - s.begin, 3);
    EXPECT_LE(s.end - s.begin, 4);
  }
  EXPECT_EQ(covered, 13);
}

TEST(EnginePoolShardPlan, NeverMoreShardsThanItems) {
  // More workers than items: one shard per item, never an empty shard.
  const auto tiny = EnginePool::shard_plan(3, 8);
  ASSERT_EQ(tiny.size(), 3u);
  for (const auto& s : tiny) EXPECT_EQ(s.end - s.begin, 1);
  // Empty batch: no shards.
  EXPECT_TRUE(EnginePool::shard_plan(0, 4).empty());
}

// -- merged accounting --------------------------------------------------------

TEST(EnginePoolAccounting, MergedProfilerSumsShardsAndRecordsBreakdown) {
  const models::ModelDef def = models::make_treelstm_embed(16);
  Rng prng(5);
  const models::ModelParams params = models::init_params(def, prng);
  const Batch b = make_batch(def, 12, 55);
  const std::vector<const ds::Tree*> raw = baselines::raw(b.trees);

  EnginePool pool(def, params, ra::Schedule{}, gpu(),
                  EnginePoolOptions{4});
  const runtime::RunResult out = run_pooled(pool, def, b);
  ASSERT_EQ(out.shards.size(), 4u);

  // The merged profiler sums the shards' measured counters. A batch that
  // fills every worker lends none, so each shard ran on one thread, and
  // its panel counts equal a one-thread engine's over the same slice.
  CortexEngine single(def, params, ra::Schedule{}, gpu());
  single.set_num_threads(1);
  std::int64_t gemm_calls = 0;
  std::int64_t panels = 0;
  double run_sum = 0.0;
  for (const runtime::ShardRecord& s : out.shards) {
    EXPECT_EQ(s.batch_size, 3);
    EXPECT_GT(s.run_ns, 0.0);
    run_sum += s.run_ns;
    const runtime::RunResult r = single.run(std::vector<const ds::Tree*>(
        raw.begin() + s.batch_begin,
        raw.begin() + s.batch_begin + s.batch_size));
    gemm_calls += r.profiler.batched_gemm_calls;
    panels += r.profiler.batched_panels;
  }
  EXPECT_EQ(out.profiler.batched_gemm_calls, gemm_calls);
  EXPECT_EQ(out.profiler.batched_panels, panels);
  EXPECT_EQ(out.profiler.host_threads, 1);
  // Each shard's wall time holds its linearization and its numerics.
  EXPECT_GT(out.profiler.numerics_host_ns, 0.0);
  EXPECT_GT(out.profiler.linearization_ns, 0.0);
  EXPECT_GE(run_sum,
            out.profiler.linearization_ns + out.profiler.numerics_host_ns);
  // Nothing modeled: the pool merges measured numbers only.
  EXPECT_EQ(out.profiler.kernel_launches, 0);
  EXPECT_EQ(out.peak_memory_bytes, 0);
}

}  // namespace
}  // namespace cortex::exec
