#pragma once
// Queue-based task pool + submit-and-wait groups for the engine pool
// (exec/engine_pool.hpp).
//
// Why not ThreadPool? A ThreadPool is one Team (support/team.hpp) whose
// caller runs every step as its owner — exactly right for the engine's
// wavefront loops, where one run owns the pool. A serving pool is the
// opposite shape: every worker owns *state* (a CortexEngine with its
// scratch and states tensor), tasks are heterogeneous (one shard each),
// and many client threads submit batches concurrently. One owner's steps
// do not fit that, so this file adds the submit-and-wait group:
//   - TaskPool: N dedicated worker threads draining one FIFO queue. A
//     task receives the executing worker's index, so per-worker state
//     (engines_[worker]) is exclusive by construction — a worker runs one
//     task at a time and never migrates mid-task.
//   - TaskGroup: tracks the tasks one caller submitted and wait()s for
//     exactly those, independent of other callers sharing the pool. The
//     first exception thrown by any task in the group is rethrown from
//     wait(); the pool and the group both stay usable afterwards.
//   - Lending: a task may borrow workers that are idle at that moment
//     (TaskPool::lend) as members of the support::Team splitting its
//     inference. Only workers beyond those the queued tasks will take are
//     lent, and a lent worker comes back as soon as tasks queue up with no
//     idle worker left (backlogged()): a spinning member sees it at once
//     and a parked one is woken for it, so lending never delays a queued
//     task by more than the lent worker's current chunk of work.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "support/team.hpp"

namespace cortex::support {

class TaskGroup;

class TaskPool {
 public:
  /// A unit of work: fn(worker) runs on worker thread `worker` (0-based,
  /// < num_threads()). Unlike a Team's owner, the submitting thread never
  /// executes tasks — it blocks in TaskGroup::wait().
  using Task = std::function<void(int)>;

  /// Spawns `num_threads` dedicated workers (clamped to >= 1).
  explicit TaskPool(int num_threads);
  ~TaskPool();
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Lends up to `max` workers that are idle beyond the tasks already
  /// queued to `team`: the i-th lent worker (i = 1..k) serves it as member
  /// i until it is dismissed or the pool is backlogged(). Returns k, 0
  /// when no worker is idle. Never blocks on a worker.
  int lend(int max, const std::shared_ptr<Team>& team);

  /// True while queued group tasks outnumber the idle workers: a lent
  /// worker returns to the pool. One relaxed load.
  bool backlogged() const {
    return backlogged_.load(std::memory_order_relaxed);
  }

  /// Stops the pool: workers drain the queue (so every already-enqueued
  /// group is still completed and woken), then exit and are joined.
  /// Subsequent enqueues throw. Idempotent; the destructor calls it.
  void shutdown();

 private:
  friend class TaskGroup;

  /// Enqueues a task on behalf of `group` (thread-safe). The group's
  /// pending count must already account for it. Throws cortex::Error if
  /// the pool is stopping or stopped: accepting the task would strand the
  /// group forever once the workers exit on the drained queue.
  void enqueue(TaskGroup* group, std::vector<Task> tasks);
  void worker_main(int worker);
  /// Recomputes backlogged_ and, when it turns true, wakes the members
  /// of every lent team parked between steps so they leave; mu_ held.
  void update_backlog();

  const int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::pair<TaskGroup*, Task>> queue_;
  int idle_ = 0;         ///< workers waiting for a task
  int queued_group_ = 0; ///< queue_ entries that belong to a group
  std::atomic<bool> backlogged_{false};
  /// One entry per lent worker still serving: the team it serves.
  std::vector<std::shared_ptr<Team>> lent_;
  bool stop_ = false;
  bool joined_ = false;

  // Group-completion channel, deliberately pool-owned rather than
  // per-group: finish() must signal completion *after* releasing the
  // accounting lock (so the woken waiter never blocks on a lock the
  // notifier still holds), but the instant the last count hits zero the
  // waiter may return from wait() and destroy its group — a group-owned
  // cv could be destroyed mid-notify. The pool strictly outlives both
  // every group (groups hold a pool reference) and every worker's
  // finish() call (the destructor joins the workers), so notifying the
  // pool's cv outside the lock is always safe. Shared across groups;
  // waiters recheck their own group's count, so cross-group wakes are
  // spurious-but-harmless.
  std::mutex group_mu_;
  std::condition_variable group_cv_;
};

/// One caller's batch of tasks on a (possibly shared) TaskPool. Reusable:
/// after wait() returns, run() may be called again. Destroying a group
/// with tasks still outstanding waits for them (exceptions swallowed —
/// call wait() to observe them). A group has one owning thread: only the
/// owner calls run()/wait()/the destructor (workers only call finish()),
/// and the owner must not destroy the group while its own wait() could
/// still be pending — which the destructor's wait() enforces.
class TaskGroup {
 public:
  explicit TaskGroup(TaskPool& pool) : pool_(pool) {}
  ~TaskGroup();
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Submits fn to the pool as part of this group. Never runs inline.
  /// Rethrows the pool's rejection (shutdown) with the group's pending
  /// count unwound, so a later wait() cannot hang on the rejected task.
  void run(TaskPool::Task fn);
  /// Submits every task at once: no worker sees the queue holding only
  /// some of them (so none lends a worker another of them needs).
  void run(std::vector<TaskPool::Task> fns);

  /// Blocks until every task submitted via run() has finished, then
  /// rethrows the first exception any of them threw (clearing it, so the
  /// group is usable for another round).
  void wait();

 private:
  friend class TaskPool;
  /// Worker-side completion: record `err` (first wins) and wake waiters.
  void finish(std::exception_ptr err);

  TaskPool& pool_;
  // Guarded by pool_.group_mu_; completion is signalled on
  // pool_.group_cv_ (see TaskPool for why the channel is pool-owned).
  std::int64_t pending_ = 0;
  std::exception_ptr first_error_;
};

}  // namespace cortex::support
