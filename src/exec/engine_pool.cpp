#include "exec/engine_pool.hpp"

#include <algorithm>

#include "runtime/profiler.hpp"
#include "support/fault_injection.hpp"
#include "support/logging.hpp"
#include "support/thread_pool.hpp"

namespace cortex::exec {

namespace {

// Fires at the top of each shard execution with a TransientError, so the
// bounded-retry path below is exercisable on demand.
support::FaultSite g_fault_pool_worker("pool.worker");

}  // namespace

int EnginePool::default_num_workers() {
  return support::ThreadPool::default_num_threads();
}

std::vector<EnginePool::Shard> EnginePool::shard_plan(std::int64_t batch,
                                                     int workers) {
  if (batch <= 0) return {};
  // At most one shard per worker and never an empty one.
  const std::int64_t s =
      std::min<std::int64_t>(std::max(workers, 1), batch);
  std::vector<Shard> shards;
  shards.reserve(static_cast<std::size_t>(s));
  for (std::int64_t i = 0; i < s; ++i)
    shards.push_back(Shard{batch * i / s, batch * (i + 1) / s});
  return shards;
}

EnginePool::EnginePool(const models::ModelDef& def,
                       const models::ModelParams& params,
                       ra::Schedule schedule, runtime::DeviceSpec spec,
                       EnginePoolOptions opts)
    : def_(def), opts_(opts) {
  if (opts_.workers < 1) opts_.workers = default_num_workers();
  engines_.reserve(static_cast<std::size_t>(opts_.workers));
  for (int w = 0; w < opts_.workers; ++w) {
    // Worker 0's construction compiles (or warm-hits the plan cache);
    // workers 1..N-1 are guaranteed warm hits sharing the same artifacts.
    engines_.push_back(
        std::make_unique<CortexEngine>(def, params, schedule, spec));
    engines_.back()->set_num_threads(1);
  }
  tasks_ = std::make_unique<support::TaskPool>(opts_.workers);
}

support::TeamLease EnginePool::lend(int wanted) {
  auto team = std::make_shared<support::Team>();
  const int lent = tasks_->lend(wanted, team);
  if (lent == 0) return support::TeamLease();
  return support::TeamLease(std::move(team), 1 + lent);
}

PoolStats EnginePool::stats() const {
  PoolStats s;
  s.transient_retries = transient_retries_.load(std::memory_order_relaxed);
  s.batches_failed = batches_failed_.load(std::memory_order_relaxed);
  return s;
}

const CortexEngine& EnginePool::engine(int w) const {
  CORTEX_CHECK(w >= 0 && w < num_workers())
      << "bad worker index " << w << " of " << num_workers();
  return *engines_[static_cast<std::size_t>(w)];
}

template <typename Item>
runtime::RunResult EnginePool::run_sharded(const std::vector<Item>& batch) {
  if (batch.empty()) return runtime::RunResult{};

  const std::vector<Shard> shards =
      shard_plan(static_cast<std::int64_t>(batch.size()), num_workers());
  const auto num_shards = shards.size();
  std::vector<runtime::RunResult> results(num_shards);
  std::vector<runtime::ShardRecord> records(num_shards);

  // One task per shard. The executing worker's index selects the engine,
  // so an engine is only ever touched by its own worker thread — even
  // with several client threads inside run() at once, in which case the
  // FIFO queue interleaves their shards across idle workers.
  // A batch that fills every worker leaves none to lend; a smaller one
  // lets each shard borrow the workers idle when its run starts.
  const bool may_lend = static_cast<int>(num_shards) < num_workers();
  support::TaskGroup group(*tasks_);
  std::vector<support::TaskPool::Task> tasks;
  tasks.reserve(num_shards);
  for (std::size_t si = 0; si < num_shards; ++si) {
    tasks.emplace_back([this, &batch, &shards, &results, &records,
                        may_lend, si](int worker) {
      const Shard& sh = shards[si];
      const std::vector<Item> sub(
          batch.begin() + static_cast<std::ptrdiff_t>(sh.begin),
          batch.begin() + static_cast<std::ptrdiff_t>(sh.end));
      runtime::ShardRecord rec;
      rec.worker = worker;
      rec.batch_begin = sh.begin;
      rec.batch_size = sh.end - sh.begin;
      CortexEngine& engine = *engines_[static_cast<std::size_t>(worker)];
      if (may_lend)
        engine.set_lender([this](int n) { return lend(n); });
      else
        engine.set_lender(nullptr);
      const std::int64_t t0 = runtime::now_ns();
      // Transient failures (may succeed on retry) re-run the shard on
      // this same worker, bounded; deterministic errors propagate at
      // once — retrying a malformed structure can only repeat it.
      for (int attempt = 0;; ++attempt) {
        try {
          if (g_fault_pool_worker.fire())
            throw TransientError("injected pool.worker failure");
          results[si] = engine.run(sub);
          break;
        } catch (const TransientError& e) {
          if (attempt >= opts_.transient_retries) throw;
          transient_retries_.fetch_add(1, std::memory_order_relaxed);
          support::warn(std::string("pool worker retrying shard after "
                                    "transient failure: ") +
                        e.what());
        }
      }
      rec.run_ns = static_cast<double>(runtime::now_ns() - t0);
      records[si] = rec;
    });
  }
  // All at once, so no shard's run counts a worker another shard of this
  // batch is about to take as idle.
  group.run(std::move(tasks));
  // Rethrows the first shard's error after every shard of this batch has
  // finished — a failing shard fails the whole batch, and no worker is
  // left running a stale task, so the pool serves the next batch cleanly.
  try {
    group.wait();
  } catch (...) {
    batches_failed_.fetch_add(1, std::memory_order_relaxed);
    throw;
  }

  runtime::RunResult merged;
  for (std::size_t si = 0; si < num_shards; ++si)
    runtime::append_shard(merged, std::move(results[si]), records[si]);
  return merged;
}

runtime::RunResult EnginePool::run(const std::vector<const ds::Tree*>& trees) {
  // Same guard (and ordering relative to the empty-batch return) as
  // CortexEngine::run(trees), so pool and engine agree on every input.
  CORTEX_CHECK(def_.kind() != linearizer::StructureKind::kDag)
      << "model " << def_.name << " expects DAG inputs";
  return run_sharded(trees);
}

runtime::RunResult EnginePool::run(
    const std::vector<std::unique_ptr<ds::Tree>>& trees) {
  std::vector<const ds::Tree*> raw;
  raw.reserve(trees.size());
  for (const auto& t : trees) raw.push_back(t.get());
  return run(raw);
}

runtime::RunResult EnginePool::run(const std::vector<const ds::Dag*>& dags) {
  CORTEX_CHECK(def_.kind() == linearizer::StructureKind::kDag)
      << "model " << def_.name << " expects tree inputs, not DAGs";
  return run_sharded(dags);
}

}  // namespace cortex::exec
