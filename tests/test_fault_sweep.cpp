// Fault-sweep battery: every serving-path injection site is forced to
// fire during a mini-zoo x BatchServer differential run, and the stack
// must absorb it — no crash, no hang, no broken promise, and every
// request that is supposed to succeed returns root states bit-identical
// to a fault-free run. Transient pool/dispatch faults are retried (and
// not at all under a retry bound of 0); a persistent transient fault
// fails requests cleanly (kError) and the server keeps serving after the
// fault clears. The JIT is an offline tool, so its sites (toolchain,
// dlopen) armed during serving must never be reached: every request
// succeeds bit-identically and health stays clean, while the same armed
// site still fires on a direct build_kernel. What each JIT site does
// when it fires is tested against build_kernel directly in test_jit.cpp.

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "baselines/common.hpp"
#include "ds/generators.hpp"
#include "exec/batch_server.hpp"
#include "exec/jit.hpp"
#include "exec/plan_cache.hpp"
#include "lowering/lower.hpp"
#include "models/model_zoo.hpp"
#include "support/fault_injection.hpp"

namespace cortex::exec {
namespace {

using support::FaultInjector;

runtime::DeviceSpec gpu() { return runtime::DeviceSpec::v100_gpu(); }

bool is_dag(const models::ModelDef& def) {
  return def.kind() == linearizer::StructureKind::kDag;
}

struct Batch {
  std::vector<std::unique_ptr<ds::Tree>> trees;
  std::vector<std::unique_ptr<ds::Dag>> dags;
  std::int64_t size() const {
    return static_cast<std::int64_t>(trees.size() + dags.size());
  }
};

Batch make_batch(const models::ModelDef& def, std::int64_t n,
                 std::uint64_t seed) {
  Rng rng(seed);
  Batch b;
  if (is_dag(def)) {
    for (std::int64_t i = 0; i < n; ++i)
      b.dags.push_back(ds::make_grid_dag(2 + rng.next_below(3),
                                         2 + rng.next_below(3), rng));
  } else {
    for (std::int64_t i = 0; i < n; ++i)
      b.trees.push_back(ds::make_random_parse_tree(1 + rng.next_below(8), rng));
  }
  return b;
}

std::int64_t sink_count(const ds::Dag& dag) {
  std::int64_t sinks = 0;
  for (std::int64_t v = 0; v < dag.num_nodes(); ++v)
    if (dag.succs(v).empty()) ++sinks;
  return sinks;
}

/// Fault-free per-request reference slices from a direct pool run.
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

/// Submits the whole batch and joins every future with a hang guard: a
/// promise that never resolves fails the test here instead of wedging
/// the binary until the ctest timeout.
std::vector<ServedResult> serve_batch(BatchServer& server, const Batch& b) {
  std::vector<std::future<ServedResult>> futs;
  for (const auto& t : b.trees) futs.push_back(server.submit(t.get()));
  for (const auto& d : b.dags) futs.push_back(server.submit(d.get()));
  std::vector<ServedResult> out;
  for (auto& f : futs) {
    EXPECT_EQ(f.wait_for(std::chrono::seconds(120)),
              std::future_status::ready)
        << "broken/stuck promise";
    out.push_back(f.get());
  }
  return out;
}

std::vector<models::ModelDef> mini_zoo() {
  std::vector<models::ModelDef> defs;
  defs.push_back(models::make_treernn_fig1(16));
  defs.push_back(models::make_treelstm_embed(16));
  defs.push_back(models::make_dagrnn(16));
  return defs;
}

constexpr std::int64_t kRequests = 6;

BatchServerOptions server_opts() {
  BatchServerOptions o;
  o.max_batch = 4;
  o.max_wait_us = 0;  // greedy: no added latency, deterministic-ish batches
  return o;
}

/// One sweep iteration per model: a fault-free reference from a direct
/// pool run, then the armed serving run over the same batch, compiled
/// cold (plan cache cleared) so every site on the compile path is on the
/// executed path too. A site that `expect_reached` must fire while
/// serving; one that does not must never even be evaluated.
void sweep_site_over_zoo(
    const std::string& arm_spec, bool expect_all_ok,
    const std::function<void(const models::ModelDef&, BatchServer&)>&
        extra_checks = {},
    bool expect_reached = true) {
  Rng prng(29);
  for (const models::ModelDef& def : mini_zoo()) {
    SCOPED_TRACE(arm_spec + " / " + def.name);
    const models::ModelParams params = models::init_params(def, prng);
    const Batch batch = make_batch(def, kRequests, 97);

    std::vector<std::vector<std::vector<float>>> ref;
    {
      EnginePool ref_pool(def, params, ra::Schedule{}, gpu(),
                          EnginePoolOptions{2});
      ref = reference_slices(ref_pool, def, batch);
    }

    // Armed run: serve the same batch through a BatchServer.
    PlanCache::instance().clear();
    FaultInjector::instance().configure(arm_spec);
    std::vector<ServedResult> results;
    {
      EnginePool pool(def, params, ra::Schedule{}, gpu(),
                      EnginePoolOptions{2});
      BatchServer server(pool, server_opts());
      results = serve_batch(server, batch);
      if (extra_checks) extra_checks(def, server);

      // The armed site must actually have fired — a sweep that never
      // reaches its site proves nothing — unless the site is off the
      // serving path, where reaching it at all is the bug.
      const std::string site = arm_spec.substr(0, arm_spec.find('='));
      if (expect_reached) {
        EXPECT_GE(FaultInjector::instance().stats(site).fired, 1)
            << site << " never fired";
      } else {
        EXPECT_EQ(FaultInjector::instance().stats(site).hits, 0)
            << "a served request reached " << site;
      }

      // Whatever the fault did, the server must still serve cleanly
      // after it clears.
      FaultInjector::instance().reset();
      const Batch after = make_batch(def, 2, 131);
      for (const ServedResult& r : serve_batch(server, after))
        EXPECT_EQ(r.status, RequestStatus::kOk) << "post-fault serving";
    }
    FaultInjector::instance().reset();

    ASSERT_EQ(static_cast<std::int64_t>(results.size()), batch.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (expect_all_ok) {
        ASSERT_EQ(results[i].status, RequestStatus::kOk)
            << "request " << i << ": " << results[i].error;
      }
      // Bit-identity for every request that succeeded — a fault must
      // never produce a *wrong* answer, only a clean failure.
      if (results[i].status == RequestStatus::kOk) {
        EXPECT_EQ(results[i].root_states, ref[i]) << "request " << i;
      }
    }
  }
}

/// Disarms every fault site on scope exit, so a failed assertion cannot
/// leave a site armed for the next test.
struct FaultGuard {
  ~FaultGuard() { FaultInjector::instance().reset(); }
};

/// Arms one JIT site for a whole zoo serving sweep: no served request may
/// reach it, every request succeeds bit-identically, and the server never
/// reports itself degraded. Each armed run compiles cold, so a kernel
/// build anywhere on the serving path would evaluate the site. Then the
/// same arm spec is applied to a direct build_kernel, where the site must
/// fire — so "never reached" cannot pass on a site name that nothing
/// evaluates.
void sweep_jit_site_over_zoo(const std::string& site) {
  FaultGuard fault_guard;
  sweep_site_over_zoo(
      site + "=*", /*expect_all_ok=*/true,
      [](const models::ModelDef&, BatchServer& server) {
        const ServerHealth h = server.health();
        EXPECT_FALSE(h.degraded);
        EXPECT_EQ(h.consecutive_failures, 0);
      },
      /*expect_reached=*/false);

  const models::ModelDef def = models::make_treernn_fig1(16);
  const lowering::LoweredModel lm = lowering::lower(*def.model, ra::Schedule{});
  FaultInjector::instance().configure(site + "=*");
  EXPECT_THROW(build_kernel(lm.program, nullptr), cortex::Error);
  EXPECT_GE(FaultInjector::instance().stats(site).fired, 1)
      << site << " never fired on a direct build";
}

// -- JIT build faults: off the serving path, invisible to it --

TEST(FaultSweep, ToolchainFailureDegradesAndServesBitIdentical) {
  sweep_jit_site_over_zoo("jit.cc");
}

TEST(FaultSweep, DlopenFailureDegradesAndServesBitIdentical) {
  sweep_jit_site_over_zoo("jit.dlopen");
}

// -- transient serve-path faults: retried when bounded, clean when not --

TEST(FaultSweep, SingleWorkerFaultIsRetriedInvisibly) {
  // pool.worker=1 fires once; the pool's bounded retry absorbs it and
  // every request still succeeds bit-identically.
  sweep_site_over_zoo("pool.worker=1", /*expect_all_ok=*/true,
                      [](const models::ModelDef&, BatchServer& server) {
                        EXPECT_GE(server.health().pool_transient_retries, 1);
                        EXPECT_FALSE(server.health().degraded);
                      });
}

TEST(FaultSweep, SingleDispatchFaultIsRetriedInvisibly) {
  sweep_site_over_zoo("server.dispatch=1", /*expect_all_ok=*/true,
                      [](const models::ModelDef&, BatchServer& server) {
                        EXPECT_GE(server.health().dispatch_retries, 1);
                      });
}

TEST(FaultSweep, ZeroPoolRetriesPropagateTheFirstTransientFault) {
  // transient_retries = 0: the first shard TransientError propagates out
  // of run() with no retry.
  FaultGuard fault_guard;
  const models::ModelDef def = models::make_treernn_fig1(16);
  Rng prng(31);
  const models::ModelParams params = models::init_params(def, prng);
  const Batch batch = make_batch(def, kRequests, 97);
  EnginePoolOptions opts{2};
  opts.transient_retries = 0;
  EnginePool pool(def, params, ra::Schedule{}, gpu(), opts);
  FaultInjector::instance().configure("pool.worker=1");
  EXPECT_THROW(pool.run(baselines::raw(batch.trees)), TransientError);
  EXPECT_EQ(FaultInjector::instance().stats("pool.worker").fired, 1);
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.transient_retries, 0);
  EXPECT_EQ(stats.batches_failed, 1);
}

TEST(FaultSweep, ZeroDispatchRetriesBisectAtOnceAndServeBitIdentical) {
  // dispatch_retries = 0: a transient batch failure skips the whole-batch
  // re-run and goes straight to bisection, whose halves still serve every
  // request bit-identically.
  FaultGuard fault_guard;
  const models::ModelDef def = models::make_treelstm_embed(16);
  Rng prng(37);
  const models::ModelParams params = models::init_params(def, prng);
  const Batch batch = make_batch(def, kRequests, 97);
  EnginePool pool(def, params, ra::Schedule{}, gpu(),
                  EnginePoolOptions{2});
  const auto ref = reference_slices(pool, def, batch);

  BatchServerOptions opts = server_opts();
  opts.dispatch_retries = 0;
  opts.autostart = false;  // queue everything first: one batch of max_batch
  BatchServer server(pool, opts);
  std::vector<std::future<ServedResult>> futs;
  for (const auto& t : batch.trees) futs.push_back(server.submit(t.get()));
  FaultInjector::instance().configure("server.dispatch=1");
  server.start();
  for (std::size_t i = 0; i < futs.size(); ++i) {
    ASSERT_EQ(futs[i].wait_for(std::chrono::seconds(120)),
              std::future_status::ready)
        << "broken/stuck promise";
    const ServedResult r = futs[i].get();
    ASSERT_EQ(r.status, RequestStatus::kOk) << "request " << i << ": "
                                            << r.error;
    EXPECT_EQ(r.root_states, ref[i]) << "request " << i;
  }
  EXPECT_EQ(FaultInjector::instance().stats("server.dispatch").fired, 1);
  const ServerHealth h = server.health();
  EXPECT_EQ(h.dispatch_retries, 0);
  EXPECT_GE(h.bisect_reruns, 1);
}

TEST(FaultSweep, PersistentWorkerFaultFailsCleanlyAndRecovers) {
  // pool.worker=* exhausts every retry: requests resolve kError (never a
  // wrong answer, never a stuck promise), and serving recovers as soon
  // as the fault clears (checked inside the sweep helper).
  sweep_site_over_zoo(
      "pool.worker=*", /*expect_all_ok=*/false,
      [](const models::ModelDef&, BatchServer& server) {
        const ServerHealth h = server.health();
        EXPECT_GE(h.pool_batches_failed, 1);
        EXPECT_GE(h.consecutive_failures, 4);
        EXPECT_TRUE(h.degraded);
      });
}

TEST(FaultSweep, PersistentDispatchFaultFailsCleanlyAndRecovers) {
  sweep_site_over_zoo("server.dispatch=*", /*expect_all_ok=*/false,
                      [](const models::ModelDef&, BatchServer& server) {
                        EXPECT_GE(server.health().dispatch_retries, 1);
                        EXPECT_GE(server.health().bisect_reruns, 1);
                      });
}

}  // namespace
}  // namespace cortex::exec
