#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <numeric>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace alsmf {
namespace {

TEST(ThreadPool, CoversFullRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::size_t b, std::size_t e, unsigned) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t, unsigned) { called = true; });
  EXPECT_FALSE(called);
  pool.parallel_for(7, 3, [&](std::size_t, std::size_t, unsigned) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, DegenerateRangesAreContractNotLuck) {
  // The serve batcher submits whatever range the drained batch produced,
  // including zero fold-ins and (begin, end) pairs computed by subtraction
  // that can invert. All of these must be silent no-ops.
  ThreadPool pool(3);
  std::atomic<int> calls{0};
  const auto count = [&](std::size_t, std::size_t, unsigned) { calls++; };
  pool.parallel_for(0, 0, count);
  pool.parallel_for(std::size_t{1} << 60, (std::size_t{1} << 60) - 5, count);
  pool.parallel_for(std::numeric_limits<std::size_t>::max(), 0, count);
  EXPECT_EQ(calls.load(), 0);
  // And the pool is still fully functional afterwards.
  pool.parallel_for(0, 10, count);
  EXPECT_GT(calls.load(), 0);
}

TEST(ThreadPool, SingleElementRunsInline) {
  ThreadPool pool(4);
  unsigned worker = 99;
  pool.parallel_for(3, 4, [&](std::size_t b, std::size_t e, unsigned w) {
    EXPECT_EQ(b, 3u);
    EXPECT_EQ(e, 4u);
    worker = w;
  });
  EXPECT_EQ(worker, 0u);
}

TEST(ThreadPool, WorkerIndexWithinBounds) {
  ThreadPool pool(3);
  std::atomic<bool> ok{true};
  pool.parallel_for(0, 500, [&](std::size_t, std::size_t, unsigned w) {
    if (w >= 3) ok = false;
  });
  EXPECT_TRUE(ok.load());
}

TEST(ThreadPool, SumMatchesSequential) {
  ThreadPool pool(4);
  std::atomic<long> total{0};
  pool.parallel_for(1, 10001, [&](std::size_t b, std::size_t e, unsigned) {
    long local = 0;
    for (std::size_t i = b; i < e; ++i) local += static_cast<long>(i);
    total.fetch_add(local);
  });
  EXPECT_EQ(total.load(), 50005000L);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [&](std::size_t, std::size_t, unsigned) -> void {
                          throw Error("boom");
                        }),
      Error);
}

TEST(ThreadPool, UsableAfterException) {
  ThreadPool pool(4);
  try {
    pool.parallel_for(0, 100, [](std::size_t, std::size_t, unsigned) {
      throw Error("first");
    });
  } catch (const Error&) {
  }
  std::atomic<int> count{0};
  pool.parallel_for(0, 100, [&](std::size_t b, std::size_t e, unsigned) {
    count.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, DefaultSizePositive) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, GlobalSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
}

TEST(ThreadPool, ManySequentialJobs) {
  ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(0, 64, [&](std::size_t b, std::size_t e, unsigned) {
      count.fetch_add(static_cast<int>(e - b));
    });
    ASSERT_EQ(count.load(), 64);
  }
}

// Several threads share one pool, and every chunk itself submits a nested
// job. Each index of every job runs exactly once, every worker index is
// < size(), and no index is held by two chunks of one job at once (the
// per-worker scratch contract devsim::Device relies on).
TEST(ThreadPool, ConcurrentAndNestedSubmittersShareOnePool) {
  ThreadPool pool(4);
  constexpr int kSubmitters = 6;
  constexpr int kRounds = 20;
  constexpr std::size_t kOuter = 257;
  constexpr std::size_t kInner = 7;
  std::atomic<bool> ok{true};
  const auto check_index = [&](unsigned w) {
    if (w >= pool.size()) ok = false;
  };
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<std::atomic<int>> hits(kOuter);
        std::vector<std::atomic<int>> nested(kOuter * kInner);
        std::vector<std::atomic<bool>> busy(pool.size());
        pool.parallel_for(0, kOuter, [&](std::size_t b, std::size_t e,
                                         unsigned w) {
          check_index(w);
          if (w >= busy.size() || busy[w].exchange(true)) ok = false;
          for (std::size_t i = b; i < e; ++i) {
            hits[i].fetch_add(1);
            pool.parallel_for(0, kInner, [&](std::size_t nb, std::size_t ne,
                                             unsigned nw) {
              check_index(nw);
              for (std::size_t j = nb; j < ne; ++j) {
                nested[i * kInner + j].fetch_add(1);
              }
            });
          }
          if (w < busy.size()) busy[w] = false;
        });
        for (const auto& h : hits) {
          if (h.load() != 1) ok = false;
        }
        for (const auto& h : nested) {
          if (h.load() != 1) ok = false;
        }
      }
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_TRUE(ok.load());
}

}  // namespace
}  // namespace alsmf
