#pragma once
// Fixed-size host thread pool backing a standalone engine's wavefront
// executor (CortexEngine::set_num_threads; paper §4.2/§5: nodes within
// one dynamic batch are mutually independent, so each batch is a parallel
// step and the end of the step is the inter-batch barrier — the host-side
// mirror of the device-wide barriers insert_barriers places in §A.4).
//
// The pool is a support::Team that lives as long as the pool: the calling
// thread is its owner (member 0) and num_threads() - 1 dedicated threads
// serve it as members 1.. for good. It is the same Team EnginePool's
// worker engines get lent for a run (from idle pool workers), so both
// kinds of engine split a step one way: claimed chunks, member m taking
// chunk m first, spinning between steps and blocking only once a run
// stalls or ends (support/team.hpp).

#include <memory>
#include <thread>
#include <vector>

#include "support/team.hpp"

namespace cortex::support {

class ThreadPool {
 public:
  /// Spawns num_threads - 1 members (the caller is member 0). num_threads
  /// is clamped to [1, Team::kMaxChunks]; a 1-thread pool spawns nothing
  /// and has no team.
  explicit ThreadPool(int num_threads = default_num_threads());
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// The pool's team, whose owner is whichever one thread calls run() on
  /// it; nullptr when num_threads() == 1.
  Team* team() const { return team_.get(); }

  /// Pool size the engine uses by default: the hardware thread count,
  /// std::thread::hardware_concurrency() (min 1).
  static int default_num_threads();

 private:
  const int num_threads_;
  std::unique_ptr<Team> team_;
  std::vector<std::thread> members_;
};

}  // namespace cortex::support
