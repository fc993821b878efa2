#include "support/task_group.hpp"

#include <algorithm>

#include "support/logging.hpp"

namespace cortex::support {

TaskPool::TaskPool(int num_threads)
    : num_threads_(std::max(num_threads, 1)) {
  workers_.reserve(static_cast<std::size_t>(num_threads_));
  for (int w = 0; w < num_threads_; ++w)
    workers_.emplace_back([this, w] { worker_main(w); });
}

TaskPool::~TaskPool() { shutdown(); }

void TaskPool::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    if (joined_) return;
    joined_ = true;
  }
  cv_.notify_all();
  // Workers drain the queue before exiting, so any group still waiting on
  // an enqueued task is woken rather than deadlocked; well-behaved owners
  // (EnginePool, BatchServer) have no outstanding groups by now.
  for (std::thread& t : workers_) t.join();
}

void TaskPool::update_backlog() {
  const bool backlogged = queued_group_ > idle_;
  if (backlogged == backlogged_.load(std::memory_order_relaxed)) return;
  backlogged_.store(backlogged, std::memory_order_relaxed);
  // Team::wake takes the team's lock after the store, so a parked member
  // either saw backlogged() before it blocked or is woken to see it now.
  if (backlogged)
    for (const std::shared_ptr<Team>& team : lent_) team->wake();
}

void TaskPool::enqueue(TaskGroup* group, std::vector<Task> tasks) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Checked under the lock: once stop_ is set the workers exit as soon
    // as the queue drains, so a task slipped in afterwards would never
    // run and its group would wait forever.
    CORTEX_CHECK(!stop_) << "TaskPool::enqueue on a stopped pool";
    for (Task& t : tasks) queue_.emplace_back(group, std::move(t));
    queued_group_ += static_cast<int>(tasks.size());
    update_backlog();
  }
  if (tasks.size() == 1)
    cv_.notify_one();
  else
    cv_.notify_all();
}

int TaskPool::lend(int max, const std::shared_ptr<Team>& team) {
  int k = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return 0;
    k = std::min(max, idle_ - static_cast<int>(queue_.size()));
    for (int i = 1; i <= k; ++i) {
      lent_.push_back(team);
      queue_.emplace_back(nullptr, [this, team, i](int) {
        team->serve(i, [this] { return backlogged(); });
        std::lock_guard<std::mutex> lock(mu_);
        lent_.erase(std::find(lent_.begin(), lent_.end(), team));
      });
    }
  }
  if (k <= 0) return 0;
  if (k == 1)
    cv_.notify_one();
  else
    cv_.notify_all();
  return k;
}

void TaskPool::worker_main(int worker) {
  for (;;) {
    TaskGroup* group = nullptr;
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++idle_;
      update_backlog();
      cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      --idle_;
      if (queue_.empty()) return;  // stop_ and nothing left to drain
      group = queue_.front().first;
      task = std::move(queue_.front().second);
      queue_.pop_front();
      if (group != nullptr) --queued_group_;
      update_backlog();
    }
    std::exception_ptr err;
    try {
      task(worker);
    } catch (...) {
      err = std::current_exception();
    }
    // Moved, not copied: the exception object may be rethrown to (and
    // read on) the waiting thread the instant finish() publishes it, so
    // this thread must not keep a reference whose release would race the
    // waiter's use (exception_ptr rethrow shares the object). A lent
    // worker's task belongs to no group and must not throw; if it does,
    // say so rather than lose the error.
    if (group != nullptr)
      group->finish(std::move(err));
    else if (err)
      warn("TaskPool: a lent worker's task threw");
  }
}

TaskGroup::~TaskGroup() {
  try {
    wait();
  } catch (...) {
    // Destructor observation of a task failure: nothing to rethrow into.
  }
}

void TaskGroup::run(TaskPool::Task fn) {
  std::vector<TaskPool::Task> fns;
  fns.push_back(std::move(fn));
  run(std::move(fns));
}

void TaskGroup::run(std::vector<TaskPool::Task> fns) {
  const auto n = static_cast<std::int64_t>(fns.size());
  if (n == 0) return;
  {
    std::lock_guard<std::mutex> lock(pool_.group_mu_);
    pending_ += n;
  }
  try {
    pool_.enqueue(this, std::move(fns));
  } catch (...) {
    // The pool rejected the tasks (shutdown): no worker will ever
    // finish() them, so unwind the pending count or wait() would hang.
    std::lock_guard<std::mutex> lock(pool_.group_mu_);
    pending_ -= n;
    throw;
  }
}

void TaskGroup::finish(std::exception_ptr err) {
  // The group is guaranteed alive here (its owner cannot leave wait()
  // while this task is undecremented), but the moment the lock below
  // drops after the final decrement the owner may destroy it — so take a
  // pool reference now instead of reading the member `pool_` afterwards.
  TaskPool& pool = pool_;
  bool last = false;
  {
    std::lock_guard<std::mutex> lock(pool.group_mu_);
    if (err && !first_error_) first_error_ = std::move(err);
    CORTEX_CHECK(pending_ > 0)
        << "TaskGroup::finish with no pending task (count underflow)";
    --pending_;
    last = pending_ == 0;
  }
  // Notify after releasing group_mu_: a woken waiter acquires the mutex
  // immediately instead of waking straight into a block on the lock this
  // thread still holds (and only the group's last task pays a wake at
  // all). This is why the cv lives on the pool, not the group: the waiter
  // may destroy the group the moment it observes pending_ == 0, but the
  // pool is guaranteed alive for the duration of this worker call.
  if (last) pool.group_cv_.notify_all();
}

void TaskGroup::wait() {
  std::unique_lock<std::mutex> lock(pool_.group_mu_);
  pool_.group_cv_.wait(lock, [&] { return pending_ == 0; });
  if (first_error_) {
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

}  // namespace cortex::support
