// BatchServer differential + unit battery. The serving contract under
// test: for every zoo model x {1,4} workers x {1,8} client threads, at
// default options (greedy) and with a 2000 us window, the per-request
// root states a client gets back from submit() are bit-identical to a
// direct EnginePool::run over the same structures — coalescing must
// never perturb numerics or misroute a slice. Plus the serving semantics
// themselves: greedy coalescing of what is queued, no added wait for a
// lone request at default options, pass-through at max_batch=1, deadline
// expiry without occupying a batch slot, deadlines and windows past the
// clock's range, backpressure (reject and block policies), shutdown
// draining, structure-kind admission checks, DAG multi-sink demux, the
// defaults of unset options, and metrics consistency. Runs in CI under
// ASan/UBSan and TSan via the `serving` ctest label.

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/common.hpp"
#include "ds/generators.hpp"
#include "exec/batch_server.hpp"
#include "models/model_zoo.hpp"
#include "support/clock.hpp"
#include "support/thread_pool.hpp"

namespace cortex::exec {
namespace {

runtime::DeviceSpec gpu() { return runtime::DeviceSpec::v100_gpu(); }

bool is_dag(const models::ModelDef& def) {
  return def.model && def.model->kind == linearizer::StructureKind::kDag;
}

bool is_seq(const models::ModelDef& def) {
  return def.name.rfind("Seq", 0) == 0;
}

struct Batch {
  std::vector<std::unique_ptr<ds::Tree>> trees;
  std::vector<std::unique_ptr<ds::Dag>> dags;
  std::int64_t size() const {
    return static_cast<std::int64_t>(trees.size() + dags.size());
  }
};

/// Structure batch matched to the model family (embedding-leaf trees with
/// distinct words dominate so a misrouted slice cannot be accidentally
/// equal to the right one).
Batch make_batch(const models::ModelDef& def, std::int64_t n,
                 std::uint64_t seed) {
  Rng rng(seed);
  Batch b;
  if (is_dag(def)) {
    for (std::int64_t i = 0; i < n; ++i)
      b.dags.push_back(ds::make_grid_dag(2 + rng.next_below(3),
                                         2 + rng.next_below(3), rng));
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

std::int64_t sink_count(const ds::Dag& dag) {
  std::int64_t sinks = 0;
  for (std::int64_t v = 0; v < dag.num_nodes(); ++v)
    if (dag.succs(v).empty()) ++sinks;
  return sinks;
}

/// The per-request slices a direct EnginePool::run over `b` produces:
/// request i owns 1 root state (tree) or one per sink (DAG).
std::vector<std::vector<std::vector<float>>> reference_slices(
    EnginePool& pool, const models::ModelDef& def, const Batch& b) {
  runtime::RunResult ref = is_dag(def) ? pool.run(baselines::raw(b.dags))
                                       : pool.run(baselines::raw(b.trees));
  std::vector<std::int64_t> counts;
  if (is_dag(def))
    for (const auto& d : b.dags) counts.push_back(sink_count(*d));
  else
    counts.assign(b.trees.size(), 1);
  return runtime::split_by_request(std::move(ref), counts);
}

// -- differential battery: zoo x {1,4} workers x {1,8} clients x 2 windows --

class ServerZoo : public ::testing::TestWithParam<int> {
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

TEST_P(ServerZoo, PerRequestStatesBitIdenticalToDirectPoolRun) {
  const models::ModelDef def = this->def();
  Rng prng(23);
  const models::ModelParams params = models::init_params(def, prng);
  constexpr std::int64_t kPerClient = 4;

  for (const int workers : {1, 4}) {
    EnginePool pool(def, params, ra::Schedule{}, gpu(),
                    EnginePoolOptions{workers, 1, 1});
    for (const int clients : {1, 8}) {
      SCOPED_TRACE(def.name + " workers " + std::to_string(workers) +
                   " clients " + std::to_string(clients));

      // Per-client structures and their direct-pool reference slices,
      // computed on the main thread before the server exists.
      std::vector<Batch> batches;
      std::vector<std::vector<std::vector<std::vector<float>>>> expected;
      for (int t = 0; t < clients; ++t) {
        batches.push_back(make_batch(
            def, kPerClient,
            1000 + static_cast<std::uint64_t>(t) +
                static_cast<std::uint64_t>(workers) * 100));
        expected.push_back(reference_slices(pool, def, batches.back()));
      }

      // Once at default options (greedy: the served path) and once with
      // an explicit window that holds batches open for co-batching.
      for (const bool window : {false, true}) {
        SCOPED_TRACE(window ? "max_batch 8, 2000 us window"
                            : "default options");
        BatchServerOptions opts;
        if (window) {
          opts.max_batch = 8;
          opts.max_wait_us = 2000;
        }
        BatchServer server(pool, opts);

        // Clients submit request-by-request and join their own futures.
        // gtest assertions are not thread-safe, so workers only record.
        std::vector<std::string> failure(
            static_cast<std::size_t>(clients));
        std::vector<std::thread> threads;
        threads.reserve(static_cast<std::size_t>(clients));
        for (int t = 0; t < clients; ++t) {
          threads.emplace_back([&, t] {
            const Batch& mine = batches[static_cast<std::size_t>(t)];
            std::vector<std::future<ServedResult>> futs;
            for (std::int64_t i = 0; i < mine.size(); ++i) {
              const auto k = static_cast<std::size_t>(i);
              futs.push_back(is_dag(def)
                                 ? server.submit(mine.dags[k].get())
                                 : server.submit(mine.trees[k].get()));
            }
            for (std::int64_t i = 0; i < mine.size(); ++i) {
              ServedResult r = futs[static_cast<std::size_t>(i)].get();
              auto& fail = failure[static_cast<std::size_t>(t)];
              if (r.status != RequestStatus::kOk) {
                fail = "request " + std::to_string(i) + ": " +
                       to_string(r.status) + " " + r.error;
                return;
              }
              if (r.root_states !=
                  expected[static_cast<std::size_t>(t)]
                          [static_cast<std::size_t>(i)]) {
                fail = "request " + std::to_string(i) + ": states diverge";
                return;
              }
              if (r.batch_size < 1 || r.e2e_ns <= 0.0) {
                fail = "request " + std::to_string(i) + ": bad metadata";
                return;
              }
            }
          });
        }
        for (std::thread& t : threads) t.join();
        for (int t = 0; t < clients; ++t)
          EXPECT_EQ(failure[static_cast<std::size_t>(t)], "")
              << "client " << t;

        const ServerMetrics m = server.metrics();
        EXPECT_EQ(m.completed_ok,
                  static_cast<std::int64_t>(clients) * kPerClient);
        EXPECT_EQ(m.submitted, m.completed_ok);
        EXPECT_EQ(m.failed + m.rejected + m.deadline_missed, 0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, ServerZoo, ::testing::Range(0, 8));

// -- coalescing semantics -----------------------------------------------------

models::ModelDef tree_model() { return models::make_treelstm_embed(16); }

TEST(BatchServerCoalesce, QueuedRequestsFormOneBatch) {
  const models::ModelDef def = tree_model();
  Rng prng(3);
  const models::ModelParams params = models::init_params(def, prng);
  EnginePool pool(def, params, ra::Schedule{}, gpu(),
                  EnginePoolOptions{2, 1, 1});
  const Batch b = make_batch(def, 6, 77);
  const auto expected = reference_slices(pool, def, b);

  BatchServerOptions opts;
  opts.max_batch = 8;
  opts.max_wait_us = 0;  // greedy: take exactly what is queued
  opts.autostart = false;
  BatchServer server(pool, opts);

  std::vector<std::future<ServedResult>> futs;
  for (const auto& t : b.trees) futs.push_back(server.submit(t.get()));
  server.start();

  for (std::size_t i = 0; i < futs.size(); ++i) {
    ServedResult r = futs[i].get();
    EXPECT_EQ(r.status, RequestStatus::kOk);
    EXPECT_EQ(r.root_states, expected[i]);
    // All six were queued before the dispatcher started, so the greedy
    // window coalesces them into a single mini-batch.
    EXPECT_EQ(r.batch_size, 6);
    EXPECT_GE(r.queue_ns, 0.0);
    EXPECT_GE(r.e2e_ns, r.queue_ns);
  }
  const ServerMetrics m = server.metrics();
  EXPECT_EQ(m.batches, 1);
  ASSERT_EQ(m.batch_size_hist.size(), 9u);
  EXPECT_EQ(m.batch_size_hist[6], 1);
  EXPECT_EQ(m.mean_batch_size, 6.0);
  EXPECT_EQ(m.max_batch_size, 6);
  EXPECT_EQ(m.completed_ok, 6);
  EXPECT_GT(m.throughput_rps, 0.0);
  // Percentiles are ordered and populated.
  EXPECT_EQ(m.e2e.count, 6);
  EXPECT_LE(m.e2e.p50_ns, m.e2e.p99_ns);
  EXPECT_LE(m.e2e.p99_ns, m.e2e.p999_ns);
  EXPECT_LE(m.e2e.p999_ns, m.e2e.max_ns);
  EXPECT_EQ(m.queue.count, 6);
}

TEST(BatchServerCoalesce, LoneRequestIsNotHeldForAWindow) {
  const models::ModelDef def = tree_model();
  Rng prng(13);
  const models::ModelParams params = models::init_params(def, prng);
  EnginePool pool(def, params, ra::Schedule{}, gpu(),
                  EnginePoolOptions{1, 1, 1});
  const Batch b = make_batch(def, 1, 84);
  const std::vector<const ds::Tree*> lone = baselines::raw(b.trees);
  constexpr int kReps = 20;

  // The floor a lone request pays anyway: a direct pool run.
  double run_min_ns = std::numeric_limits<double>::infinity();
  for (int i = 0; i < kReps; ++i) {
    const std::int64_t t0 = support::monotonic_ns();
    (void)pool.run(lone);
    run_min_ns = std::min(
        run_min_ns, static_cast<double>(support::monotonic_ns() - t0));
  }

  // Sequential lone requests at default options: nothing else is ever
  // queued, so a greedy dispatcher runs each one at once. A coalescing
  // window would hold every one of them open for its full length.
  BatchServer server(pool, {});
  double served_min_ns = std::numeric_limits<double>::infinity();
  for (int i = 0; i < kReps; ++i) {
    const ServedResult r = server.submit(lone[0]).get();
    ASSERT_EQ(r.status, RequestStatus::kOk);
    EXPECT_EQ(r.batch_size, 1);
    served_min_ns = std::min(served_min_ns, r.e2e_ns);
  }
  EXPECT_LT(served_min_ns - run_min_ns, 500e3)
      << "served " << served_min_ns << " ns vs direct run " << run_min_ns
      << " ns";
}

TEST(BatchServerCoalesce, MaxBatchOneIsPassThrough) {
  const models::ModelDef def = tree_model();
  Rng prng(4);
  const models::ModelParams params = models::init_params(def, prng);
  EnginePool pool(def, params, ra::Schedule{}, gpu(),
                  EnginePoolOptions{2, 1, 1});
  const Batch b = make_batch(def, 5, 78);
  const auto expected = reference_slices(pool, def, b);

  BatchServerOptions opts;
  opts.max_batch = 1;
  opts.max_wait_us = 0;
  opts.autostart = false;
  BatchServer server(pool, opts);
  std::vector<std::future<ServedResult>> futs;
  for (const auto& t : b.trees) futs.push_back(server.submit(t.get()));
  server.start();
  for (std::size_t i = 0; i < futs.size(); ++i) {
    ServedResult r = futs[i].get();
    EXPECT_EQ(r.status, RequestStatus::kOk);
    EXPECT_EQ(r.root_states, expected[i]);
    EXPECT_EQ(r.batch_size, 1);
  }
  const ServerMetrics m = server.metrics();
  EXPECT_EQ(m.batches, 5);
  ASSERT_EQ(m.batch_size_hist.size(), 2u);
  EXPECT_EQ(m.batch_size_hist[1], 5);
}

// -- deadlines ----------------------------------------------------------------

TEST(BatchServerDeadline, ExpiredRequestSkipsTheBatchAndReportsMiss) {
  const models::ModelDef def = tree_model();
  Rng prng(5);
  const models::ModelParams params = models::init_params(def, prng);
  EnginePool pool(def, params, ra::Schedule{}, gpu(),
                  EnginePoolOptions{1, 1, 1});
  const Batch b = make_batch(def, 2, 79);
  const auto expected = reference_slices(pool, def, b);

  BatchServerOptions opts;
  opts.max_batch = 4;
  opts.max_wait_us = 0;
  opts.autostart = false;
  BatchServer server(pool, opts);

  // Expired while the server was not yet dispatching; the healthy
  // request must still be served, in a batch that does not count the
  // expired one.
  auto doomed = server.submit(b.trees[0].get(), /*deadline_us=*/1);
  auto healthy = server.submit(b.trees[1].get());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  server.start();

  const ServedResult d = doomed.get();
  EXPECT_EQ(d.status, RequestStatus::kDeadlineExceeded);
  EXPECT_TRUE(d.root_states.empty());
  EXPECT_EQ(d.batch_size, 0);
  EXPECT_GT(d.queue_ns, 0.0);

  const ServedResult h = healthy.get();
  EXPECT_EQ(h.status, RequestStatus::kOk);
  EXPECT_EQ(h.root_states, expected[1]);
  EXPECT_EQ(h.batch_size, 1);

  const ServerMetrics m = server.metrics();
  EXPECT_EQ(m.deadline_missed, 1);
  EXPECT_EQ(m.completed_ok, 1);
  EXPECT_EQ(m.batch_size_hist[1], 1);
}

TEST(BatchServerDeadline, HugeDeadlineIsServed) {
  const models::ModelDef def = tree_model();
  Rng prng(14);
  const models::ModelParams params = models::init_params(def, prng);
  EnginePool pool(def, params, ra::Schedule{}, gpu(),
                  EnginePoolOptions{1, 1, 1});
  const Batch b = make_batch(def, 2, 85);
  const auto expected = reference_slices(pool, def, b);
  constexpr std::int64_t kHuge = std::numeric_limits<std::int64_t>::max();

  BatchServerOptions opts;
  opts.max_batch = 2;
  // A window past the clock's range: the batch still runs once it is
  // full.
  opts.max_wait_us = kHuge;
  opts.autostart = false;
  BatchServer server(pool, opts);

  // deadline_us * 1000 overflows int64. It must saturate to a deadline
  // that never expires, not wrap into the past.
  auto f0 = server.submit(b.trees[0].get(), kHuge);
  auto f1 = server.submit(b.trees[1].get(), kHuge);
  server.start();
  const ServedResult r0 = f0.get();
  const ServedResult r1 = f1.get();
  ASSERT_EQ(r0.status, RequestStatus::kOk) << to_string(r0.status);
  ASSERT_EQ(r1.status, RequestStatus::kOk) << to_string(r1.status);
  EXPECT_EQ(r0.root_states, expected[0]);
  EXPECT_EQ(r1.root_states, expected[1]);
  EXPECT_EQ(r0.batch_size, 2);
  EXPECT_EQ(server.metrics().deadline_missed, 0);
}

// -- backpressure -------------------------------------------------------------

TEST(BatchServerBackpressure, RejectPolicyFailsFastWhenFull) {
  const models::ModelDef def = tree_model();
  Rng prng(6);
  const models::ModelParams params = models::init_params(def, prng);
  EnginePool pool(def, params, ra::Schedule{}, gpu(),
                  EnginePoolOptions{1, 1, 1});
  const Batch b = make_batch(def, 3, 80);

  BatchServerOptions opts;
  opts.queue_capacity = 2;
  opts.on_full = BatchServerOptions::OnFull::kReject;
  opts.max_wait_us = 0;
  opts.autostart = false;
  BatchServer server(pool, opts);

  auto f0 = server.submit(b.trees[0].get());
  auto f1 = server.submit(b.trees[1].get());
  auto f2 = server.submit(b.trees[2].get());
  // The overflow request resolves immediately, without a dispatcher.
  ASSERT_EQ(f2.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  const ServedResult r2 = f2.get();
  EXPECT_EQ(r2.status, RequestStatus::kRejected);

  server.start();
  EXPECT_EQ(f0.get().status, RequestStatus::kOk);
  EXPECT_EQ(f1.get().status, RequestStatus::kOk);
  const ServerMetrics m = server.metrics();
  EXPECT_EQ(m.rejected, 1);
  EXPECT_EQ(m.submitted, 2);
  EXPECT_EQ(m.completed_ok, 2);
}

TEST(BatchServerBackpressure, BlockPolicyWaitsForSpace) {
  const models::ModelDef def = tree_model();
  Rng prng(7);
  const models::ModelParams params = models::init_params(def, prng);
  EnginePool pool(def, params, ra::Schedule{}, gpu(),
                  EnginePoolOptions{1, 1, 1});
  const Batch b = make_batch(def, 3, 81);

  BatchServerOptions opts;
  opts.queue_capacity = 1;
  opts.on_full = BatchServerOptions::OnFull::kBlock;
  opts.max_wait_us = 0;
  opts.autostart = false;
  BatchServer server(pool, opts);

  // The submitter will block on the full queue until the dispatcher
  // starts draining it; nothing is ever rejected.
  std::thread starter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    server.start();
  });
  std::vector<std::future<ServedResult>> futs;
  for (const auto& t : b.trees) futs.push_back(server.submit(t.get()));
  starter.join();
  for (auto& f : futs) EXPECT_EQ(f.get().status, RequestStatus::kOk);
  const ServerMetrics m = server.metrics();
  EXPECT_EQ(m.rejected, 0);
  EXPECT_EQ(m.completed_ok, 3);
}

// -- shutdown -----------------------------------------------------------------

TEST(BatchServerShutdown, QueuedRequestsFailAndNewSubmitsAreTurnedAway) {
  const models::ModelDef def = tree_model();
  Rng prng(8);
  const models::ModelParams params = models::init_params(def, prng);
  EnginePool pool(def, params, ra::Schedule{}, gpu(),
                  EnginePoolOptions{1, 1, 1});
  const Batch b = make_batch(def, 3, 82);

  BatchServerOptions opts;
  opts.autostart = false;
  BatchServer server(pool, opts);
  // Options left unset take the documented defaults.
  EXPECT_EQ(server.options().max_batch, 32);
  EXPECT_EQ(BatchServer::default_max_batch(), 32);
  EXPECT_EQ(server.options().max_wait_us, 0);
  EXPECT_EQ(BatchServer::default_max_wait_us(), 0);
  BatchServerOptions negative_wait;
  negative_wait.max_wait_us = -5;
  negative_wait.autostart = false;
  EXPECT_EQ(BatchServer(pool, negative_wait).options().max_wait_us, 0);
  EXPECT_EQ(server.options().dispatch_retries, 1);
  EXPECT_EQ(EnginePoolOptions{}.transient_retries, 2);
  EXPECT_EQ(EnginePool::default_num_workers(),
            support::ThreadPool::default_num_threads());
  EXPECT_GE(EnginePool::default_num_workers(), 1);
  auto f0 = server.submit(b.trees[0].get());
  auto f1 = server.submit(b.trees[1].get());
  server.shutdown();
  EXPECT_EQ(f0.get().status, RequestStatus::kShutdown);
  EXPECT_EQ(f1.get().status, RequestStatus::kShutdown);
  auto f2 = server.submit(b.trees[2].get());
  EXPECT_EQ(f2.get().status, RequestStatus::kShutdown);
  const ServerMetrics m = server.metrics();
  EXPECT_EQ(m.shutdown_dropped, 3);
  EXPECT_EQ(m.submitted, 2);
  server.shutdown();  // idempotent
}

TEST(BatchServerShutdown, StartedServerDrainsAcceptedRequestsOnShutdown) {
  const models::ModelDef def = tree_model();
  Rng prng(9);
  const models::ModelParams params = models::init_params(def, prng);
  EnginePool pool(def, params, ra::Schedule{}, gpu(),
                  EnginePoolOptions{2, 1, 1});
  const Batch b = make_batch(def, 6, 83);
  const auto expected = reference_slices(pool, def, b);

  std::vector<std::future<ServedResult>> futs;
  {
    BatchServerOptions opts;
    opts.max_batch = 4;
    opts.max_wait_us = 100;
    BatchServer server(pool, opts);
    for (const auto& t : b.trees) futs.push_back(server.submit(t.get()));
    // Destructor shutdown: every accepted request still completes.
  }
  for (std::size_t i = 0; i < futs.size(); ++i) {
    ServedResult r = futs[i].get();
    ASSERT_EQ(r.status, RequestStatus::kOk) << "request " << i;
    EXPECT_EQ(r.root_states, expected[i]);
  }
}

// -- admission checks ---------------------------------------------------------

TEST(BatchServerAdmission, StructureKindMismatchFailsOnlyThatRequest) {
  Rng prng(10);
  const models::ModelDef tree_def = tree_model();
  const models::ModelParams tree_params = models::init_params(tree_def, prng);
  EnginePool tree_pool(tree_def, tree_params, ra::Schedule{}, gpu(),
                       EnginePoolOptions{1, 1, 1});
  BatchServer tree_server(tree_pool, {});
  auto dag = ds::make_grid_dag(3, 3, prng);
  const ServedResult r = tree_server.submit(dag.get()).get();
  EXPECT_EQ(r.status, RequestStatus::kError);
  EXPECT_NE(r.error.find("expects tree requests"), std::string::npos);

  const models::ModelDef dag_def = models::make_dagrnn(16);
  const models::ModelParams dag_params = models::init_params(dag_def, prng);
  EnginePool dag_pool(dag_def, dag_params, ra::Schedule{}, gpu(),
                      EnginePoolOptions{1, 1, 1});
  BatchServer dag_server(dag_pool, {});
  auto tree = ds::make_random_parse_tree(4, prng);
  const ServedResult r2 = dag_server.submit(tree.get()).get();
  EXPECT_EQ(r2.status, RequestStatus::kError);
  EXPECT_NE(r2.error.find("expects DAG requests"), std::string::npos);
}

TEST(BatchServerAdmission, MalformedStructureFailsFastUnderValidation) {
  const models::ModelDef def = tree_model();
  Rng prng(11);
  const models::ModelParams params = models::init_params(def, prng);
  EnginePool pool(def, params, ra::Schedule{}, gpu(),
                  EnginePoolOptions{1, 1, 1});
  BatchServerOptions opts;
  opts.autostart = false;  // proof the rejection needs no dispatcher
  BatchServer server(pool, opts);

  ds::Tree bad;
  ds::TreeNode* leaf = bad.make_leaf(7);
  bad.set_root(bad.make_internal(leaf, leaf));  // node reachable twice
  auto fut = server.submit(&bad);
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(fut.get().status, RequestStatus::kError);
  EXPECT_EQ(server.metrics().failed, 1);
}

// -- DAG demux ----------------------------------------------------------------

TEST(BatchServerDag, MultiSinkDagGetsOneRootStatePerSink) {
  const models::ModelDef def = models::make_dagrnn(16);
  Rng prng(12);
  const models::ModelParams params = models::init_params(def, prng);
  EnginePool pool(def, params, ra::Schedule{}, gpu(),
                  EnginePoolOptions{2, 1, 1});

  // Node 0 feeds sinks 1 and 2; node 3 is isolated (leaf and sink): three
  // sinks total, so the request owns three root states.
  ds::Dag multi(4);
  multi.add_edge(0, 1);
  multi.add_edge(0, 2);
  for (std::int64_t v = 0; v < 4; ++v)
    multi.set_word(v, static_cast<std::int32_t>(10 + v));
  auto grid = ds::make_grid_dag(3, 4, prng);

  Batch b;
  b.dags.push_back(std::make_unique<ds::Dag>(multi));
  b.dags.push_back(std::move(grid));
  const auto expected = reference_slices(pool, def, b);
  ASSERT_EQ(expected[0].size(), 3u);
  ASSERT_EQ(expected[1].size(), 1u);

  BatchServerOptions opts;
  opts.max_batch = 4;
  opts.max_wait_us = 0;
  opts.autostart = false;
  BatchServer server(pool, opts);
  auto f0 = server.submit(b.dags[0].get());
  auto f1 = server.submit(b.dags[1].get());
  server.start();
  const ServedResult r0 = f0.get();
  const ServedResult r1 = f1.get();
  ASSERT_EQ(r0.status, RequestStatus::kOk);
  ASSERT_EQ(r1.status, RequestStatus::kOk);
  EXPECT_EQ(r0.root_states, expected[0]);
  EXPECT_EQ(r1.root_states, expected[1]);
}

}  // namespace
}  // namespace cortex::exec
