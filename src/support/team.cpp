#include "support/team.hpp"

#include <thread>

#include "support/clock.hpp"
#include "support/logging.hpp"

namespace cortex::support {

namespace {

/// How long a waiting thread spins before it blocks. Longer than one
/// served wavefront step (a batch-1 SeqLSTM h256 step is ~20-35 µs on one
/// core), so a team blocks only when a run stalls or ends, and shorter
/// than the ~1 ms a parked thread's p99 wake costs.
constexpr std::int64_t kSpinNs = 200'000;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// Spins until done() or kSpinNs passed; true when done().
template <class Done>
bool spin_until(const Done& done) {
  const std::int64_t deadline = monotonic_ns() + kSpinNs;
  for (std::uint32_t i = 1;; ++i) {
    if (done()) return true;
    cpu_relax();
    if (i % 64 == 0 && monotonic_ns() > deadline) return false;
  }
}

std::uint32_t step_of(std::uint64_t word) {
  return static_cast<std::uint32_t>(word >> 32);
}

}  // namespace

int Team::claim(std::uint32_t step, int prefer) {
  std::uint64_t w = word_.load(std::memory_order_acquire);
  for (;;) {
    if (step_of(w) != step) return -1;
    const auto free = ~static_cast<std::uint32_t>(w);
    if (free == 0) return -1;
    const int c = prefer >= 0 && prefer < kMaxChunks && (free >> prefer & 1u)
                      ? prefer
                      : __builtin_ctz(free);
    if (word_.compare_exchange_weak(w, w | (std::uint64_t{1} << c),
                                    std::memory_order_acq_rel,
                                    std::memory_order_acquire))
      return c;
  }
}

void Team::run_chunk(int member, int chunk) {
  try {
    (*fn_)(member, chunk);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!error_) error_ = std::current_exception();
    failed_.store(true, std::memory_order_relaxed);
  }
}

void Team::wake() {
  // Taking the lock orders this wake after a waiter's last check of its
  // condition (it holds mu_ from that check into cv_.wait), so no wake is
  // lost between the two.
  { std::lock_guard<std::mutex> lock(mu_); }
  cv_.notify_all();
}

void Team::run(int n, const ChunkFn& fn) {
  CORTEX_CHECK(n >= 1 && n <= kMaxChunks)
      << "a team step has 1.." << kMaxChunks << " chunks, not " << n;
  CORTEX_CHECK(step_ + 1 < kDismissed) << "team step ids exhausted";
  fn_ = &fn;
  ++step_;
  // Chunks past n are preset as claimed; chunk 0 is the owner's.
  const std::uint32_t mask =
      (n == kMaxChunks ? 0u : ~0u << static_cast<unsigned>(n)) | 1u;
  word_.store(std::uint64_t{step_} << 32 | mask, std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) > 0) wake();

  // Chunk 0, then any chunk left unclaimed — unless members already
  // finished all the others, which saves reading the claim word back.
  const std::int64_t base = members_done_;
  int own = 0;
  for (int c = 0; c >= 0;) {
    run_chunk(0, c);
    ++own;
    c = done_.load(std::memory_order_acquire) >= base + n - own
            ? -1
            : claim(step_, -1);
  }
  members_done_ = base + n - own;
  const auto members_finished = [&] {
    return done_.load(std::memory_order_seq_cst) >= members_done_;
  };
  if (!spin_until(members_finished)) {
    std::unique_lock<std::mutex> lock(mu_);
    owner_blocked_.store(true, std::memory_order_seq_cst);
    cv_.wait(lock, members_finished);
    owner_blocked_.store(false, std::memory_order_relaxed);
  }
  if (failed_.load(std::memory_order_relaxed)) {
    std::exception_ptr err;
    {
      std::lock_guard<std::mutex> lock(mu_);
      err = std::move(error_);
      error_ = nullptr;
      failed_.store(false, std::memory_order_relaxed);
    }
    std::rethrow_exception(err);
  }
}

void Team::dismiss() {
  word_.store(std::uint64_t{kDismissed} << 32 | 0xffffffffu,
              std::memory_order_seq_cst);
  wake();
}

void Team::serve(int member, const std::function<bool()>& leave) {
  std::uint32_t seen = 0;
  for (;;) {
    const auto fresh = [&] {
      return step_of(word_.load(std::memory_order_seq_cst)) != seen;
    };
    bool left = false;
    const bool woke = spin_until([&] {
      if (fresh()) return true;
      left = leave();
      return left;
    });
    if (!woke) {
      std::unique_lock<std::mutex> lock(mu_);
      sleepers_.fetch_add(1, std::memory_order_seq_cst);
      cv_.wait(lock, [&] { return fresh() || (left = leave()); });
      sleepers_.fetch_sub(1, std::memory_order_relaxed);
    }
    const std::uint32_t step = step_of(word_.load(std::memory_order_acquire));
    if (left || step == kDismissed || leave()) return;
    seen = step;
    for (int c = claim(step, member); c >= 0; c = claim(step, member)) {
      run_chunk(member, c);
      done_.fetch_add(1, std::memory_order_seq_cst);
      if (owner_blocked_.load(std::memory_order_seq_cst)) wake();
    }
  }
}

}  // namespace cortex::support
