#pragma once
// EnginePool: mini-batch sharding across a pool of CortexEngines — the
// first piece of the serving front-end the ROADMAP points at (Clipper-
// style replica pools / BatchMaker-style cellular batching over compiled
// engines).
//
// The plan cache (plan_cache.hpp) makes CortexEngine construction ~µs for
// a warm (model, schedule, device) triple, so engines are cheap workers:
// the pool owns N of them (all sharing one immutable CompiledArtifacts by
// shared_ptr), splits an incoming mini-batch of trees/DAGs into contiguous
// per-worker shards, runs the shards concurrently on a support::TaskPool,
// and splices the per-shard RunResults back together in submission order.
// The pool's workers are the process's CPU budget: each worker engine
// runs on its own worker thread, with no pool of its own. A batch with
// fewer shards than workers leaves workers idle, and its shards may
// borrow them (CortexEngine::set_lender, support::Team): when the cell's
// recurrent step reads enough weights, a shard's engine borrows a worker
// idle when its run starts (one at most: teams of two are the size the
// split thresholds were measured at) and splits each wavefront with it,
// by columns when it is narrower than the team (cross-core model
// persistence). The owner never waits for a lent worker to wake and never
// borrows a busy one, a batch that fills every worker lends nothing, and
// a lent worker returns as soon as tasks queue up with no idle worker
// left — after its current chunk if it is running one, at once if it is
// spinning or parked between steps — so a saturated pool runs as it
// would without lending.
//
// Guarantees:
//   - Determinism: pooled root_states are bit-identical to a single
//     engine's run() over the same batch, at every worker count and shard
//     size. Each structure is linearized by exactly one worker, the cell
//     numerics per node are input-structure-local, and lent workers
//     compute whole rows or whole columns of the same chains, so neither
//     sharding nor lending can perturb them; the merge preserves
//     submission order. Pinned by tests/test_engine_pool*.cpp and
//     tests/test_team_split.cpp.
//   - Exclusivity: worker w is the only thread that ever runs
//     engines_[w] (tasks carry the executing worker's index), so
//     concurrent run() calls from many client threads are safe with no
//     per-engine locking. Workers lent to that run touch only their own
//     scratch and their share of its state rows, between its barriers.
//     One *structure instance* must still not be submitted by two
//     threads at once (the linearizer writes per-node scratch into it).
//   - Exceptions: shard failures are *classified*. A
//     cortex::TransientError (resource exhaustion, an injected transient
//     fault — failures that may succeed on retry) re-runs the shard on
//     the same worker up to EnginePoolOptions::transient_retries times
//     before giving up; every other error is deterministic (malformed
//     structure, structure-kind mismatch — retrying can only repeat it)
//     and propagates immediately. A shard that exhausts its retries (or
//     fails deterministically) fails the whole batch — the first shard
//     error is rethrown from run() after all shards of the batch
//     finished — and the pool serves subsequent batches normally.
//     Callers that need per-request isolation inside a coalesced batch
//     sit a BatchServer (batch_server.hpp) in front, which pre-validates
//     admissions and bisects a failing batch so one bad structure cannot
//     fail its co-batched neighbours.
//
// Fault-injection site (support/fault_injection.hpp): pool.worker —
// throws a TransientError at the top of a shard execution, exercising
// the retry path above on demand.
//
// Accounting: the merged profiler sums the shards (aggregate work:
// launches, flops, bytes, modeled times); RunResult::pooled_latency_ns()
// models the serving latency as the slowest shard's modeled time, and
// RunResult::shards carries worker / shard-size / per-shard wall+modeled
// ns for each shard.

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "exec/engine.hpp"
#include "support/task_group.hpp"

namespace cortex::exec {

struct EnginePoolOptions {
  /// Worker engines. < 1 uses default_num_workers() (the hardware thread
  /// count).
  int workers = 0;
  /// Times a shard that failed with cortex::TransientError is re-run
  /// (same worker, same inputs) before the error propagates; 0 lets the
  /// first one propagate. Deterministic errors never retry.
  int transient_retries = 2;
};

/// Cumulative fault accounting for one pool (EnginePool::stats;
/// thread-safe snapshot).
struct PoolStats {
  /// Shard re-runs after a TransientError (each successful recovery
  /// contributes its retry count; a batch-wide view also lands in the
  /// merged profiler's pool_transient_retries).
  std::int64_t transient_retries = 0;
  /// Batches whose error propagated out of run() — retries exhausted or
  /// a deterministic failure.
  std::int64_t batches_failed = 0;
};

class EnginePool {
 public:
  /// A contiguous slice [begin, end) of the submitted mini-batch.
  struct Shard {
    std::int64_t begin = 0;
    std::int64_t end = 0;
  };

  /// Builds `workers` engines for (def, params, schedule, spec). The
  /// first construction compiles (or hits the plan cache); the rest are
  /// warm hits sharing the same artifacts. Like CortexEngine, the pool
  /// keeps references: `def` and `params` must outlive it.
  EnginePool(const models::ModelDef& def, const models::ModelParams& params,
             ra::Schedule schedule, runtime::DeviceSpec spec,
             EnginePoolOptions opts = {});

  /// Shards the mini-batch across the workers and merges the results in
  /// submission order. An empty batch returns an empty RunResult (same
  /// structure-kind guard as CortexEngine::run, which throws first).
  /// Thread-safe: any number of client threads may call run concurrently.
  runtime::RunResult run(const std::vector<const ds::Tree*>& trees);
  runtime::RunResult run(const std::vector<std::unique_ptr<ds::Tree>>& trees);
  runtime::RunResult run(const std::vector<const ds::Dag*>& dags);

  int num_workers() const { return static_cast<int>(engines_.size()); }
  /// The model this pool serves (the serving front-end checks request
  /// structure kinds against it at admission).
  const models::ModelDef& def() const { return def_; }
  /// Worker engine `w` (tests: artifact sharing, thread configuration).
  /// Do not run() it directly while the pool is serving.
  const CortexEngine& engine(int w) const;

  /// Fault accounting since construction.
  PoolStats stats() const;

  /// Pool size used when EnginePoolOptions::workers < 1: the hardware
  /// thread count (ThreadPool::default_num_threads).
  static int default_num_workers();

  /// The deterministic sharding plan: contiguous, non-empty slices
  /// covering [0, batch) exactly once, in order, sizes within 1 of each
  /// other, min(batch, workers) of them. Exposed for the shard-boundary
  /// fuzz tests.
  static std::vector<Shard> shard_plan(std::int64_t batch, int workers);

 private:
  template <typename Item>
  runtime::RunResult run_sharded(const std::vector<Item>& batch);
  /// A shard's engine borrows up to `wanted` idle workers for its run.
  support::TeamLease lend(int wanted);

  const models::ModelDef& def_;
  EnginePoolOptions opts_;
  std::vector<std::unique_ptr<CortexEngine>> engines_;
  std::unique_ptr<support::TaskPool> tasks_;
  std::atomic<std::int64_t> transient_retries_{0};
  std::atomic<std::int64_t> batches_failed_{0};
};

}  // namespace cortex::exec
