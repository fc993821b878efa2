#include "support/thread_pool.hpp"

#include <algorithm>

namespace cortex::support {

int ThreadPool::default_num_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);  // 0 means "unknown"
}

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::clamp(num_threads, 1, Team::kMaxChunks)) {
  if (num_threads_ == 1) return;
  team_ = std::make_unique<Team>();
  members_.reserve(static_cast<std::size_t>(num_threads_ - 1));
  for (int m = 1; m < num_threads_; ++m)
    members_.emplace_back([this, m] { team_->serve(m, [] { return false; }); });
}

ThreadPool::~ThreadPool() {
  if (team_) team_->dismiss();
  for (std::thread& t : members_) t.join();
}

}  // namespace cortex::support
