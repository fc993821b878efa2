#pragma once
// Bounded MPMC queue: the admission buffer of the serving front-end
// (exec/batch_server.hpp). Many client threads push single requests, one
// or more dispatcher threads pop and coalesce them into mini-batches.
//
// Design points, all serving-driven:
//   - Bounded: the capacity IS the backpressure mechanism. push() blocks
//     until space frees (closed-loop clients), try_push() fails fast so a
//     rejecting server can complete the request with a backpressure error
//     instead of stalling the client.
//   - Deadline pops: pop_until() gives up at an absolute steady-clock
//     deadline. A deadline already in the past degrades to a try-pop,
//     which is how the dispatcher coalesces by default: it takes whatever
//     is queued right now and goes. A later deadline is the opt-in
//     coalescing window (BatchServerOptions::max_wait_us), which holds a
//     batch open for requests that have not arrived yet.
//   - close(): shuts the intake. Pushes fail immediately; pops keep
//     draining until empty so no accepted request is ever dropped, then
//     fail. All waiters are woken.
//
// Plain mutex + two condition variables. The serving hot path measures in
// microseconds per *batch* (engine runs), so a lock-free ring would buy
// nothing measurable here; the mutex keeps the close/drain semantics easy
// to get right.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>

#include "support/clock.hpp"
#include "support/logging.hpp"

namespace cortex::support {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {
    CORTEX_CHECK(capacity_ > 0) << "BoundedQueue capacity must be positive";
  }
  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks until there is space (or the queue closes). Returns false iff
  /// the queue was closed — and then `v` is left intact (moved from only
  /// on success), so a rejecting caller can still complete the request it
  /// failed to enqueue.
  bool push(T&& v) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [&] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(v));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push. False when full or closed; `v` is moved from only
  /// on success (see push).
  bool try_push(T&& v) {
    std::unique_lock<std::mutex> lock(mu_);
    if (closed_ || items_.size() >= capacity_) return false;
    items_.push_back(std::move(v));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available; false once closed AND drained.
  bool pop(T& out) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    return take_locked(lock, out);
  }

  /// Like pop(), but gives up at the absolute monotonic_ns() deadline.
  /// False on timeout or on closed-and-drained. A past deadline is a
  /// try-pop.
  bool pop_until(T& out, std::int64_t deadline_ns) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!not_empty_.wait_until(lock, to_time_point(deadline_ns), [&] {
          return closed_ || !items_.empty();
        }))
      return false;
    return take_locked(lock, out);
  }

  /// Closes the intake: subsequent pushes fail, pops drain then fail.
  /// Idempotent; wakes every waiter.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  std::size_t capacity() const { return capacity_; }

 private:
  /// Pops the front under `lock` if any item remains (predicate may have
  /// been satisfied by close() with an empty queue).
  bool take_locked(std::unique_lock<std::mutex>& lock, T& out) {
    if (items_.empty()) return false;  // closed and drained
    out = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return true;
  }

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace cortex::support
