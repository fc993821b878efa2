#include "support/thread_pool.hpp"

#include <algorithm>

#include "support/logging.hpp"

namespace cortex::support {

int ThreadPool::default_num_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);  // 0 means "unknown"
}

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(num_threads, 1)) {
  workers_.reserve(static_cast<std::size_t>(num_threads_ - 1));
  for (int w = 1; w < num_threads_; ++w)
    workers_.emplace_back([this, w] { worker_main(w); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::worker_main(int worker) {
  std::uint64_t seen = 0;
  for (;;) {
    const RangeFn* job = nullptr;
    std::int64_t n = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_start_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      job = job_;
      n = job_n_;
    }
    try {
      const std::int64_t b = chunk_begin(n, worker, num_threads_);
      const std::int64_t e = chunk_begin(n, worker + 1, num_threads_);
      if (b < e) (*job)(worker, b, e);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --pending_;
    }
    cv_done_.notify_one();
  }
}

void ThreadPool::parallel_for(std::int64_t n, const RangeFn& fn) {
  if (n <= 0) return;
  if (num_threads_ == 1 || n == 1) {
    fn(0, 0, n);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    CORTEX_CHECK(job_ == nullptr) << "parallel_for is not reentrant";
    job_ = &fn;
    job_n_ = n;
    pending_ = static_cast<int>(workers_.size());
    ++generation_;
  }
  cv_start_.notify_all();
  // The caller is worker 0; its chunk failing must not skip the barrier,
  // so the error is stashed like a worker's and rethrown after the join.
  try {
    const std::int64_t e = chunk_begin(n, 1, num_threads_);
    if (e > 0) fn(0, 0, e);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!first_error_) first_error_ = std::current_exception();
  }
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [&] { return pending_ == 0; });
  job_ = nullptr;
  if (first_error_) {
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

}  // namespace cortex::support
