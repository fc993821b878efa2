#pragma once
// Team: the thread running one inference (the owner) plus threads lent to
// it for that run, splitting each step of the run into chunks. It is the
// host analogue of Cortex's persistent kernel (§5-6): one recursion step
// spread over every core, each core keeping its share of the weights in
// its own cache, and a barrier ending the step (§A.4).
//
// The owner publishes a step of n chunks. Member m (the owner is member 0)
// first takes chunk m, so a member gets the same share every step; then
// anyone takes a chunk nobody has claimed. The owner therefore never waits
// for a member that has not arrived — waking a parked thread takes ~20 µs
// at p50 and ~0.76 ms at p99 on a 4-vCPU host — it runs the unclaimed
// chunks itself and waits only for chunks already running. Each chunk runs
// exactly once, on one thread, so results cannot depend on who ran which.
//
// Waiting spins first and then blocks: members between steps, and the
// owner at the end of a step. A member may also leave between steps (its
// `leave` predicate, e.g. "the lending pool has queued work"); its chunks
// then fall to the others. A spinning member polls `leave`; a blocked one
// re-checks it when woken (wake()), so whoever makes it true wakes the
// team.
//
// The team is shared (std::shared_ptr) by the owner and the lent threads:
// a lent thread that arrives after dismiss() returns at once, so the owner
// never waits for one to wake just to send it back.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>

namespace cortex::support {

class Team {
 public:
  /// fn(member, chunk): runs chunk `chunk` of the current step on the
  /// thread that is member `member` (0 = the owner).
  using ChunkFn = std::function<void(int, int)>;
  /// Most chunks one step can have.
  static constexpr int kMaxChunks = 32;

  Team() = default;
  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  /// Owner: runs chunks [0, n) of one step and returns once all have
  /// finished (the step's barrier). Rethrows the first exception a chunk
  /// threw, after every chunk finished; the team stays usable.
  void run(int n, const ChunkFn& fn);

  /// Owner: ends the team. Members return from serve(); one that has not
  /// arrived yet returns as soon as it does. Idempotent.
  void dismiss();

  /// A lent thread: serves as member `member` (>= 1) until dismiss(), or
  /// until `leave()` is true between steps.
  void serve(int member, const std::function<bool()>& leave);

  /// Wakes members blocked between steps to re-check their `leave`.
  void wake();

 private:
  static constexpr std::uint32_t kDismissed = 0xffffffffu;

  /// Claims an unclaimed chunk of step `step`, `prefer` first if it is
  /// free; -1 when none is left or the step is over.
  int claim(std::uint32_t step, int prefer);
  /// Runs one chunk, recording its exception instead of throwing.
  void run_chunk(int member, int chunk);

  // The owner writes the first cache line, members the second: each
  // step moves each line between cores as few times as it can.

  /// Step id (high half; 0 before the first step) and claimed-chunk mask
  /// (low half; chunks past the step's count are preset as claimed).
  alignas(64) std::atomic<std::uint64_t> word_{0};
  std::atomic<int> sleepers_{0};
  /// The current step's function: written by the owner before it
  /// publishes the step, read by members only after claiming a chunk.
  const ChunkFn* fn_ = nullptr;
  std::uint32_t step_ = 0;           ///< owner only
  std::int64_t members_done_ = 0;    ///< owner only: done_ to wait for
  /// Chunks members (not the owner) finished, over the team's life.
  alignas(64) std::atomic<std::int64_t> done_{0};
  std::atomic<bool> owner_blocked_{false};
  std::atomic<bool> failed_{false};
  alignas(64) std::mutex mu_;
  std::condition_variable cv_;
  std::exception_ptr error_;  ///< guarded by mu_
};

/// A team lent for one run: the owner plus `members() - 1` lent threads.
/// Dismisses the team when destroyed, so a run that throws still returns
/// its threads.
class TeamLease {
 public:
  TeamLease() = default;
  TeamLease(std::shared_ptr<Team> team, int members)
      : team_(std::move(team)), members_(team_ ? members : 1) {}
  TeamLease(TeamLease&& o) noexcept
      : team_(std::move(o.team_)), members_(o.members_) {
    o.members_ = 1;
  }
  TeamLease& operator=(TeamLease&& o) noexcept {
    if (this != &o) {
      if (team_) team_->dismiss();
      team_ = std::move(o.team_);
      members_ = o.members_;
      o.members_ = 1;
    }
    return *this;
  }
  ~TeamLease() {
    if (team_) team_->dismiss();
  }

  /// nullptr when nothing was lent.
  Team* team() const { return team_.get(); }
  int members() const { return members_; }

 private:
  std::shared_ptr<Team> team_;
  int members_ = 1;
};

}  // namespace cortex::support
