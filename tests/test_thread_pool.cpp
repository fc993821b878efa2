// ThreadPool: a Team with dedicated members — sizing, every chunk of a
// step run once, barrier semantics, exception propagation, and reuse
// under many steps.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "support/logging.hpp"
#include "support/thread_pool.hpp"

namespace cortex::support {
namespace {

TEST(ThreadPool, ClampsNonPositiveSizesToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  EXPECT_EQ(pool.team(), nullptr);
  ThreadPool pool2(-4);
  EXPECT_EQ(pool2.num_threads(), 1);
  // A step has at most Team::kMaxChunks chunks, so no member would ever
  // get one of its own past that.
  ThreadPool wide(Team::kMaxChunks + 8);
  EXPECT_EQ(wide.num_threads(), Team::kMaxChunks);
}

TEST(ThreadPool, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  const std::int64_t n = 1000;
  const int chunks = pool.num_threads();
  // Chunks are disjoint by construction, so plain ints suffice; any data
  // race here would also be caught by the ASan/TSan-style CI presets.
  std::vector<int> hits(static_cast<std::size_t>(n), 0);
  pool.team()->run(chunks, [&](int member, int c) {
    EXPECT_GE(member, 0);
    EXPECT_LT(member, pool.num_threads());
    for (std::int64_t i = n * c / chunks; i < n * (c + 1) / chunks; ++i)
      ++hits[static_cast<std::size_t>(i)];
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), n);
  EXPECT_EQ(*std::min_element(hits.begin(), hits.end()), 1);
  EXPECT_EQ(*std::max_element(hits.begin(), hits.end()), 1);
}

TEST(ThreadPool, HandlesEmptyAndTinyRanges) {
  ThreadPool pool(8);
  int calls = 0;
  EXPECT_THROW(pool.team()->run(0, [&](int, int) { ++calls; }), Error);
  EXPECT_EQ(calls, 0);

  std::atomic<int> sum{0};
  pool.team()->run(1, [&](int member, int c) {
    EXPECT_EQ(member, 0);  // the owner always runs chunk 0
    sum += c + 1;
  });
  EXPECT_EQ(sum.load(), 1);

  sum = 0;
  pool.team()->run(3, [&](int, int c) { sum += c + 1; });
  EXPECT_EQ(sum.load(), 6);  // fewer chunks than members: some get none
}

TEST(ThreadPool, BlocksUntilAllChunksComplete) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  pool.team()->run(4, [&](int, int) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    done += 25;
  });
  // run() is a barrier: by return, every chunk has finished.
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPool, PropagatesFirstExceptionAndStaysUsable) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.team()->run(16,
                                [&](int, int c) {
                                  CORTEX_CHECK(c != 10) << "boom at " << c;
                                }),
               Error);
  // The pool must survive a throwing step.
  std::atomic<int> sum{0};
  pool.team()->run(16, [&](int, int) { ++sum; });
  EXPECT_EQ(sum.load(), 16);
}

TEST(ThreadPool, CallerChunkExceptionAlsoPropagates) {
  ThreadPool pool(2);
  // Chunk 0 is always the caller's (member 0).
  EXPECT_THROW(pool.team()->run(8,
                                [&](int, int c) {
                                  CORTEX_CHECK(c != 0) << "caller boom";
                                }),
               Error);
}

TEST(ThreadPool, ReusableAcrossManyDispatches) {
  ThreadPool pool(3);
  std::atomic<std::int64_t> total{0};
  for (int round = 0; round < 200; ++round)
    pool.team()->run(1 + round % 7, [&](int, int c) { total += c + 1; });
  std::int64_t expect = 0;
  for (int round = 0; round < 200; ++round) {
    const int n = 1 + round % 7;
    expect += n * (n + 1) / 2;
  }
  EXPECT_EQ(total.load(), expect);
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  // One thread: no team, nothing spawned; callers run steps inline. With
  // more, the caller still runs chunk 0 itself.
  EXPECT_EQ(ThreadPool(1).team(), nullptr);
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  pool.team()->run(2, [&](int member, int c) {
    if (c == 0) {
      EXPECT_EQ(member, 0);
      EXPECT_EQ(std::this_thread::get_id(), caller);
    }
  });
}

}  // namespace
}  // namespace cortex::support
