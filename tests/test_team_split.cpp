// Cross-core model persistence: support::Team (owner + lent threads
// splitting each step into claimed chunks), TaskPool lending of idle
// workers, the engine's column-split wavefronts at team sizes 1-4 (its
// own pool's team) and with a borrowed team against the per-node oracle,
// EnginePool borrowing its idle workers, and inputs deep enough that a
// recursive walk would overflow the stack.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "baselines/common.hpp"
#include "ds/generators.hpp"
#include "exec/engine.hpp"
#include "exec/engine_pool.hpp"
#include "models/model_zoo.hpp"
#include "support/task_group.hpp"
#include "support/team.hpp"

namespace cortex {
namespace {

using support::Team;
using support::TeamLease;

runtime::DeviceSpec gpu() { return runtime::DeviceSpec::v100_gpu(); }

/// Lends dedicated threads as team members, the way EnginePool lends its
/// idle workers: up to `extra` per run, each serving until the run's
/// lease dismisses the team. Unlike a parked pool worker, each is
/// already serving when the lease is handed out, so members take part
/// from the first step.
class ThreadLender {
 public:
  explicit ThreadLender(int extra) : extra_(extra) {}
  ~ThreadLender() {
    for (std::thread& t : threads_) t.join();
  }

  TeamLease operator()(int wanted) {
    const int k = std::min(wanted, extra_);
    if (k <= 0) return TeamLease();
    auto team = std::make_shared<Team>();
    auto arrived = std::make_shared<std::atomic<int>>(0);
    for (int m = 1; m <= k; ++m)
      threads_.emplace_back([team, arrived, m] {
        arrived->fetch_add(1);
        team->serve(m, [] { return false; });
      });
    while (arrived->load() < k) std::this_thread::yield();
    return TeamLease(team, 1 + k);
  }

 private:
  int extra_;
  std::vector<std::thread> threads_;
};

// -- the Team primitive -----------------------------------------------------

TEST(TeamPrimitive, RunsEveryChunkExactlyOnceAtEveryTeamSize) {
  EXPECT_EQ(ThreadLender(0)(3).team(), nullptr);
  EXPECT_EQ(ThreadLender(0)(3).members(), 1);
  for (int extra = 1; extra <= 3; ++extra) {
    ThreadLender lender(extra);
    TeamLease lease = lender(extra);
    ASSERT_NE(lease.team(), nullptr);
    EXPECT_EQ(lease.members(), 1 + extra);
    for (int step = 0; step < 200; ++step) {
      const int n = 1 + step % Team::kMaxChunks;
      std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
      std::atomic<int> bad_member{0};
      lease.team()->run(n, [&](int member, int chunk) {
        if (member < 0 || member > extra) bad_member.fetch_add(1);
        hits[static_cast<std::size_t>(chunk)].fetch_add(1);
      });
      for (int c = 0; c < n; ++c)
        ASSERT_EQ(hits[static_cast<std::size_t>(c)].load(), 1)
            << "step " << step << " chunk " << c;
      EXPECT_EQ(bad_member.load(), 0);
    }
  }
}

TEST(TeamPrimitive, OwnerRunsChunksOfMembersThatNeverArrive) {
  // A member that was lent but never starts: the owner must not wait.
  auto team = std::make_shared<Team>();
  std::vector<int> ran(4, 0);
  team->run(4, [&](int member, int chunk) {
    EXPECT_EQ(member, 0);
    ++ran[static_cast<std::size_t>(chunk)];
  });
  EXPECT_EQ(ran, std::vector<int>(4, 1));
  team->dismiss();
  // Arriving after dismiss() returns at once.
  team->serve(1, [] { return false; });
}

TEST(TeamPrimitive, ChunkExceptionPropagatesAfterTheStepAndTeamStaysUsable) {
  ThreadLender lender(2);
  TeamLease lease = lender(2);
  Team& team = *lease.team();
  std::atomic<int> finished{0};
  EXPECT_THROW(team.run(3,
                        [&](int, int chunk) {
                          if (chunk == 2) throw std::runtime_error("chunk 2");
                          finished.fetch_add(1);
                        }),
               std::runtime_error);
  // Every other chunk of the step still ran before run() returned.
  EXPECT_EQ(finished.load(), 2);
  std::atomic<int> sum{0};
  team.run(3, [&](int, int chunk) { sum.fetch_add(chunk + 1); });
  EXPECT_EQ(sum.load(), 6);
}

TEST(TeamPrimitive, MemberThatLeavesHandsItsChunksBack) {
  auto team = std::make_shared<Team>();
  std::thread member([team] { team->serve(1, [] { return true; }); });
  for (int step = 0; step < 50; ++step) {
    std::vector<int> ran(2, 0);
    team->run(2, [&](int, int chunk) { ++ran[static_cast<std::size_t>(chunk)]; });
    ASSERT_EQ(ran, std::vector<int>(2, 1));
  }
  member.join();  // it left without a dismiss()
  team->dismiss();
}

TEST(TeamPrimitive, MembersThatSleptWakeForTheNextStep) {
  ThreadLender lender(1);
  TeamLease lease = lender(1);
  std::atomic<int> by_member{0};
  for (int round = 0; round < 3; ++round) {
    // Longer than the spin budget, so the member blocks between steps.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    for (int step = 0; step < 20; ++step)
      lease.team()->run(2, [&](int member, int) {
        if (member != 0) by_member.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      });
  }
  EXPECT_GT(by_member.load(), 0);
}

// -- TaskPool lending -----------------------------------------------------------

TEST(TaskPoolLend, LendsOnlyIdleWorkersAndSignalsBacklog) {
  support::TaskPool pool(3);
  std::mutex mu;
  std::condition_variable cv;
  int started = 0;
  bool release = false;
  const auto block = [&](int) {
    std::unique_lock<std::mutex> lock(mu);
    ++started;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  support::TaskGroup group(pool);
  group.run(std::vector<support::TaskPool::Task>{block, block, block});
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return started == 3; });
  }
  // Every worker is busy: nothing to lend, and nothing queued yet.
  EXPECT_EQ(pool.lend(2, std::make_shared<Team>()), 0);
  EXPECT_FALSE(pool.backlogged());
  support::TaskGroup late(pool);
  late.run([](int) {});
  EXPECT_TRUE(pool.backlogged());
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  group.wait();
  late.wait();
}

TEST(TaskPoolLend, ParkedMemberLeavesWhenTasksQueueUp) {
  // A worker lent to a team whose owner runs no step parks after its
  // spin. Two tasks then queue with one idle worker left: the parked
  // member must come back and take one, while the team still stands.
  support::TaskPool pool(2);
  auto team = std::make_shared<Team>();
  int lent = 0;  // once the fresh pool's workers are idle
  for (int i = 0; i < 1000 && lent == 0; ++i) {
    lent = pool.lend(1, team);
    if (lent == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(lent, 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::mutex mu;
  std::condition_variable cv;
  int running = 0;
  int met = 0;  // tasks that saw the other one running
  const auto meet = [&](int) {
    std::unique_lock<std::mutex> lock(mu);
    ++running;
    cv.notify_all();
    if (cv.wait_for(lock, std::chrono::seconds(5),
                    [&] { return running == 2; }))
      ++met;
  };
  support::TaskGroup group(pool);
  group.run(std::vector<support::TaskPool::Task>{meet, meet});
  group.wait();
  EXPECT_EQ(met, 2) << "the lent worker stayed parked in its team";
  team->dismiss();
}

// -- column splits against the per-node oracle ------------------------------------

/// Every node state, per node through models::CellExecutor::run_node.
std::vector<float> per_node_states(const models::ModelDef& def,
                                   const models::ModelParams& params,
                                   const linearizer::Linearized& lin) {
  const models::CellExecutor cell(def.cell, params);
  const std::int64_t sw = def.cell.state_width;
  std::vector<float> states(static_cast<std::size_t>(lin.num_nodes * sw));
  models::CellExecutor::Scratch regs;
  std::vector<const float*> kids;
  for (const std::int32_t id : lin.exec_order) {
    const auto n = static_cast<std::size_t>(id);
    kids.clear();
    for (std::int32_t c = lin.child_offsets[n]; c < lin.child_offsets[n + 1];
         ++c)
      kids.push_back(states.data() +
                     lin.child_ids[static_cast<std::size_t>(c)] * sw);
    cell.run_node(kids.empty(), kids, lin.word[n], states.data() + id * sw,
                  regs);
  }
  return states;
}

/// One narrow input per model: a single chain, tree or grid DAG, whose
/// upper wavefronts have one row.
linearizer::Linearized narrow_input(const models::ModelDef& def,
                                    std::uint64_t seed) {
  Rng rng(seed);
  linearizer::LinearizerSpec spec;
  spec.kind = def.model->kind;
  if (spec.kind == linearizer::StructureKind::kDag) {
    auto dag = ds::make_grid_dag(5, 4, rng);
    return linearizer::linearize_dags({dag.get()}, spec);
  }
  auto tree = def.name == "SeqLSTM" || def.name == "SeqGRU"
                  ? ds::make_chain_tree(12, rng)
                  : ds::make_sst_like_tree(rng);
  return linearizer::linearize_trees({tree.get()}, spec);
}

class TeamZoo : public ::testing::TestWithParam<int> {
 protected:
  /// Zoo cells at sizes whose recurrent step reads enough weights to
  /// split; the cells the split declines (kNodeMatVec / kMatStack2, a
  /// kMatVec over a column-split register) at small sizes.
  models::ModelDef def() const {
    switch (GetParam()) {
      case 0: return models::make_treernn_fig1(48);
      case 1: return models::make_treefc_embed(184);
      case 2: return models::make_treegru_embed(40);
      case 3: return models::make_treelstm_embed(136);
      case 4: return models::make_mvrnn(8);
      case 5: return models::make_dagrnn(264);
      case 6: return models::make_seq_lstm(136);
      case 7: return models::make_seq_gru(40);
      default: return models::make_treernn(184);
    }
  }
};

TEST_P(TeamZoo, ColumnSplitMatchesPerNodeAtTeamSizesOneToFour) {
  const models::ModelDef def = this->def();
  Rng rng(7);
  const models::ModelParams params = models::init_params(def, rng);
  const linearizer::Linearized lin = narrow_input(def, 11);
  const std::vector<float> ref = per_node_states(def, params, lin);
  const std::int64_t sw = def.cell.state_width;
  const models::BatchedCellExecutor probe(def.cell, params);
  // Every cell here either splits with >= 256 KiB of weights per step or
  // not at all.
  const bool splits = probe.split_weight_bytes(false, 1) > 0;
  std::int64_t wide = 0;  // wavefronts that split by rows
  for (const std::int32_t len : lin.batch_length) wide += len > 1 ? 1 : 0;
  const auto states = [&](const exec::CortexEngine& engine) {
    return std::vector<float>(engine.last_states().data(),
                              engine.last_states().data() +
                                  lin.num_nodes * sw);
  };
  // The engine's own pool: a team of `team` threads for every run.
  for (int team = 1; team <= 4; ++team) {
    exec::CortexEngine engine(def, params, ra::Schedule{}, gpu());
    engine.set_num_threads(team);
    for (int rep = 0; rep < 3; ++rep) {
      const runtime::RunResult r = engine.run_linearized(lin, 0.0);
      ASSERT_EQ(states(engine), ref)
          << def.name << " team=" << team << " rep=" << rep;
      EXPECT_EQ(r.profiler.host_threads, team);
      // Narrow wavefronts split by columns only for a step heavy enough.
      if (team == 1)
        EXPECT_EQ(r.profiler.parallel_batches, 0);
      else if (splits)
        EXPECT_GT(r.profiler.parallel_batches, wide);
      else
        EXPECT_EQ(r.profiler.parallel_batches, wide);
    }
  }
  // A borrowed team: only a step heavy enough borrows, and never more
  // than one thread, however many the lender has.
  exec::CortexEngine engine(def, params, ra::Schedule{}, gpu());
  engine.set_num_threads(1);
  auto lender = std::make_shared<ThreadLender>(3);
  engine.set_lender([lender](int wanted) { return (*lender)(wanted); });
  for (int rep = 0; rep < 3; ++rep) {
    const runtime::RunResult r = engine.run_linearized(lin, 0.0);
    ASSERT_EQ(states(engine), ref) << def.name << " borrowed, rep=" << rep;
    EXPECT_EQ(r.profiler.host_threads, splits ? 2 : 1);
    if (splits)
      EXPECT_GT(r.profiler.parallel_batches, wide);
    else
      EXPECT_EQ(r.profiler.parallel_batches, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, TeamZoo, ::testing::Range(0, 9));

TEST(TeamZooExecutor, EveryShareTogetherWritesThePerNodeStates) {
  // The executor contract without threads: members' run_batch calls, one
  // after another, write every column exactly as the whole call would —
  // including widths that are not a multiple of the 16-float share unit
  // and cells that decline (member 0 then runs the whole program).
  const std::vector<models::ModelDef> zoo = {
      models::make_treernn_fig1(40), models::make_treefc_embed(40),
      models::make_treegru_embed(40), models::make_treelstm_embed(40),
      models::make_mvrnn(6),          models::make_dagrnn(40),
      models::make_seq_lstm(40),      models::make_seq_gru(40),
      models::make_treernn(40)};
  for (const models::ModelDef& def : zoo) {
    Rng rng(5);
    const models::ModelParams params = models::init_params(def, rng);
    const models::BatchedCellExecutor exec(def.cell, params);
    if (!exec.supported()) continue;
    const linearizer::Linearized lin = narrow_input(def, 3);
    const std::vector<float> ref = per_node_states(def, params, lin);
    const std::int64_t sw = def.cell.state_width;
    for (int members = 1; members <= 4; ++members) {
      std::vector<float> states(ref.size(), -7.0f);
      std::vector<models::BatchedCellExecutor::Panels> panels(
          static_cast<std::size_t>(members));
      for (std::int64_t b = 0; b < lin.num_batches(); ++b) {
        const auto begin = lin.batch_begin[static_cast<std::size_t>(b)];
        const auto len = lin.batch_length[static_cast<std::size_t>(b)];
        const auto i0 = static_cast<std::size_t>(begin);
        const bool leaf = lin.child_offsets[i0] == lin.child_offsets[i0 + 1];
        for (int m = 0; m < members; ++m)
          exec.run_batch(leaf, len, lin.word.data() + i0,
                         lin.child_offsets.data() + i0, lin.child_ids.data(),
                         states.data(), states.data() + begin * sw,
                         panels[static_cast<std::size_t>(m)], nullptr,
                         models::ColumnShare{m, members});
      }
      ASSERT_EQ(states, ref) << def.name << " members=" << members;
    }
  }
}

TEST(TeamZooExecutor, SplitPlansDeclineExactlyTheCellsThatNeedAWholeSplitRegister) {
  const auto weight = [](const models::ModelDef& def) {
    Rng rng(1);
    const models::ModelParams params = models::init_params(def, rng);
    return models::BatchedCellExecutor(def.cell, params)
        .split_weight_bytes(false, -1);
  };
  // SeqGRU and TreeGRU feed Uh a register computed in column shares
  // (r ⊙ h): declined, with no intra-step barrier. MV-RNN's per-node
  // matrices cannot split.
  EXPECT_EQ(weight(models::make_seq_gru(32)), 0);
  EXPECT_EQ(weight(models::make_treegru_embed(32)), 0);
  EXPECT_EQ(weight(models::make_mvrnn(8)), 0);
  // SeqLSTM: all eight gate matrices per step; DAG-RNN: U.
  EXPECT_EQ(weight(models::make_seq_lstm(32)), 8 * 32 * 32 * 4);
  EXPECT_EQ(weight(models::make_dagrnn(32)), 32 * 32 * 4);
}

// -- EnginePool borrowing its idle workers ----------------------------------------

/// Serves `items` on the pool until a run split its wavefronts (at most
/// `tries` runs, pausing between them so an idle worker has parked);
/// every run must match `expect`. Returns the runs that split.
template <typename Items>
int runs_that_split(exec::EnginePool& pool, const Items& items,
                    const runtime::RunResult& expect, int tries) {
  int split = 0;
  for (int i = 0; i < tries && split == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const runtime::RunResult r = pool.run(items);
    EXPECT_EQ(r.root_states, expect.root_states) << "run " << i;
    split += r.profiler.parallel_batches > 0 ? 1 : 0;
  }
  return split;
}

TEST(TeamPool, OneChainBorrowsTheIdleWorker) {
  const models::ModelDef def = models::make_seq_lstm(128);
  Rng rng(3);
  const models::ModelParams params = models::init_params(def, rng);
  std::vector<std::unique_ptr<ds::Tree>> trees;
  trees.push_back(ds::make_chain_tree(30, rng));
  exec::CortexEngine single(def, params, ra::Schedule{}, gpu());
  single.set_num_threads(1);
  const runtime::RunResult expect = single.run(trees);
  exec::EnginePool pool(def, params, ra::Schedule{}, gpu(),
                        exec::EnginePoolOptions{2});
  EXPECT_EQ(runs_that_split(pool, trees, expect, 200), 1);
}

TEST(TeamPool, TwoChainsInOneBatchBorrowNothing) {
  const models::ModelDef def = models::make_seq_lstm(128);
  Rng rng(4);
  const models::ModelParams params = models::init_params(def, rng);
  std::vector<std::unique_ptr<ds::Tree>> trees;
  trees.push_back(ds::make_chain_tree(100, rng));
  trees.push_back(ds::make_chain_tree(100, rng));
  exec::CortexEngine single(def, params, ra::Schedule{}, gpu());
  single.set_num_threads(1);
  const runtime::RunResult expect = single.run(trees);
  exec::EnginePool pool(def, params, ra::Schedule{}, gpu(),
                        exec::EnginePoolOptions{2});
  // The batch fills both workers, so neither shard lends: not even when
  // one worker finishes its shard before the other starts.
  for (int i = 0; i < 30; ++i) {
    const runtime::RunResult r = pool.run(trees);
    EXPECT_EQ(r.root_states, expect.root_states) << "run " << i;
    EXPECT_EQ(r.profiler.parallel_batches, 0) << "run " << i;
  }
}

TEST(TeamPool, TreeLstmH64StaysBelowTheSplitThreshold) {
  const models::ModelDef def = models::make_treelstm_embed(64);
  Rng rng(6);
  const models::ModelParams params = models::init_params(def, rng);
  std::vector<std::unique_ptr<ds::Tree>> trees;
  trees.push_back(ds::make_sst_like_tree(rng));
  exec::CortexEngine single(def, params, ra::Schedule{}, gpu());
  single.set_num_threads(1);
  const runtime::RunResult expect = single.run(trees);
  exec::EnginePool pool(def, params, ra::Schedule{}, gpu(),
                        exec::EnginePoolOptions{2});
  EXPECT_EQ(runs_that_split(pool, trees, expect, 30), 0);
}

TEST(TeamPool, ThrowInASplitWavefrontPropagatesAndThePoolServesOn) {
  const models::ModelDef def = models::make_dagrnn(256);
  Rng rng(8);
  const models::ModelParams params = models::init_params(def, rng);
  auto good = ds::make_grid_dag(4, 4, rng);
  auto bad = ds::make_grid_dag(4, 4, rng);
  // The sink is the last, one-row wavefront: the embedding lookup of an
  // out-of-vocabulary word throws there, on every member of the split.
  bad->set_word(bad->num_nodes() - 1, static_cast<std::int32_t>(def.vocab));
  exec::CortexEngine single(def, params, ra::Schedule{}, gpu());
  single.set_num_threads(1);
  const std::vector<const ds::Dag*> one = {good.get()};
  const runtime::RunResult expect = single.run(one);
  exec::EnginePool pool(def, params, ra::Schedule{}, gpu(),
                        exec::EnginePoolOptions{2});
  // The lone DAG borrows the idle worker, so its sink wavefront splits.
  ASSERT_EQ(runs_that_split(pool, one, expect, 200), 1);
  const std::vector<const ds::Dag*> poison = {bad.get()};
  for (int i = 0; i < 10; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_THROW(pool.run(poison), Error);
  }
  EXPECT_EQ(pool.stats().batches_failed, 10);
  // Both workers serve a two-shard batch afterwards, and a lone DAG
  // borrows again.
  const std::vector<const ds::Dag*> two = {good.get(), good.get()};
  const runtime::RunResult both = pool.run(two);
  ASSERT_EQ(both.root_states.size(), 2u);
  EXPECT_EQ(both.root_states[0], expect.root_states[0]);
  EXPECT_EQ(both.root_states[1], expect.root_states[0]);
  EXPECT_EQ(runs_that_split(pool, one, expect, 200), 1);
}

// -- inputs deeper than a thread's stack -------------------------------------------

TEST(DeepChain, MillionLeafChainValidatesAndLinearizes) {
  Rng rng(9);
  const auto tree = ds::make_chain_tree(1'000'000, rng);
  tree->validate();
  EXPECT_EQ(tree->height(), 999'999);
  const linearizer::Linearized lin =
      linearizer::linearize_trees({tree.get()}, linearizer::LinearizerSpec{});
  EXPECT_EQ(lin.num_batches(), 1'000'000);
  EXPECT_EQ(lin.num_nodes, 1'999'999);
  ASSERT_EQ(lin.roots.size(), 1u);
  EXPECT_EQ(lin.roots[0], 0);
}

TEST(DeepChain, HundredThousandLeafChainServedBitwise) {
  const models::ModelDef def = models::make_seq_lstm(4);
  Rng rng(10);
  const models::ModelParams params = models::init_params(def, rng);
  std::vector<std::unique_ptr<ds::Tree>> trees;
  trees.push_back(ds::make_chain_tree(100'000, rng));
  linearizer::LinearizerSpec spec;
  spec.kind = def.model->kind;
  const linearizer::Linearized lin =
      linearizer::linearize_trees(baselines::raw(trees), spec);
  const std::vector<float> ref = per_node_states(def, params, lin);
  const auto root0 = ref.begin() + lin.roots[0] * def.cell.state_width;
  const std::vector<float> root(root0, root0 + def.cell.state_width);
  exec::EnginePool pool(def, params, ra::Schedule{}, gpu(),
                        exec::EnginePoolOptions{2});
  const runtime::RunResult r = pool.run(trees);
  ASSERT_EQ(r.root_states.size(), 1u);
  EXPECT_EQ(r.root_states[0], root);
}

}  // namespace
}  // namespace cortex
