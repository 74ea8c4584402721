// Tests for the ThreadPool fork-join (pipeline/executor.h): index
// coverage, concurrent external callers, the effective-concurrency cap,
// exception propagation and the deterministic ordered reduction
// (results must be bit-identical for every thread count); and for the
// probe rounds idle workers serve (run_round).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "hebs/advanced/pipeline.h"
#include "hebs/advanced/util.h"

namespace {

using hebs::pipeline::ThreadPool;

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> counts(kN);
  pool.parallel_for(kN, [&](std::size_t i, int) { counts[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, EffectiveConcurrencyIsCappedAtHardware) {
  const int hw = std::max(
      1, static_cast<int>(std::thread::hardware_concurrency()));
  ThreadPool oversized(hw + 13);
  EXPECT_EQ(oversized.thread_count(), hw + 13);
  EXPECT_EQ(oversized.effective_concurrency(), hw);
  ThreadPool small(1);
  EXPECT_EQ(small.effective_concurrency(), 1);
}

TEST(ThreadPool, WorkersBeyondTheCapNeverClaimIndices) {
  const int hw = std::max(
      1, static_cast<int>(std::thread::hardware_concurrency()));
  ThreadPool pool(hw + 5);
  std::mutex mu;
  std::set<int> claimants;
  pool.parallel_for(512, [&](std::size_t, int worker) {
    std::lock_guard<std::mutex> lock(mu);
    claimants.insert(worker);
  });
  ASSERT_FALSE(claimants.empty());
  // Only workers below the cap may claim; ids at or above
  // effective_concurrency() sit the call out.
  EXPECT_LT(*claimants.rbegin(), pool.effective_concurrency());
}

TEST(ThreadPool, ConcurrentCallersSerializeAndBothComplete) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 400;
  constexpr int kRounds = 25;
  std::vector<std::atomic<int>> a(kN);
  std::vector<std::atomic<int>> b(kN);
  std::thread caller_a([&] {
    for (int r = 0; r < kRounds; ++r) {
      pool.parallel_for(kN, [&](std::size_t i, int) { a[i].fetch_add(1); });
    }
  });
  std::thread caller_b([&] {
    for (int r = 0; r < kRounds; ++r) {
      pool.parallel_for(kN, [&](std::size_t i, int) { b[i].fetch_add(1); });
    }
  });
  caller_a.join();
  caller_b.join();
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(a[i].load(), kRounds) << "caller A index " << i;
    ASSERT_EQ(b[i].load(), kRounds) << "caller B index " << i;
  }
}

TEST(ThreadPool, ExceptionPropagatesAndPoolStaysUsable) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t i, int) {
                          if (i == 37) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // A failed fan-out must leave the pool ready for the next one.
  std::atomic<int> ran{0};
  pool.parallel_for(64, [&](std::size_t, int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, ExceptionSkipsRemainingUnclaimedIndices) {
  ThreadPool pool(2);
  std::atomic<int> executed{0};
  constexpr std::size_t kN = 100000;
  EXPECT_THROW(pool.parallel_for(kN,
                                 [&](std::size_t, int) {
                                   executed.fetch_add(1);
                                   throw std::runtime_error("first");
                                 }),
               std::runtime_error);
  // Every claimant can have at most one in-flight index when the
  // failure latch trips, so execution stops far short of the batch.
  EXPECT_LE(executed.load(), pool.effective_concurrency());
}

TEST(ThreadPool, ReentrantUseIsRejectedNotDeadlocked) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(4,
                                 [&](std::size_t, int) {
                                   pool.parallel_for(
                                       2, [](std::size_t, int) {});
                                 }),
               hebs::util::InvalidArgument);
  // The single-thread inline path enforces the same contract.
  ThreadPool inline_pool(1);
  EXPECT_THROW(inline_pool.parallel_for(
                   4,
                   [&](std::size_t, int) {
                     inline_pool.parallel_for(2, [](std::size_t, int) {});
                   }),
               hebs::util::InvalidArgument);
  // A different pool inside the body is fine (the engine nests the
  // row executor's pool inside frame-level fan-out this way).
  ThreadPool other(2);
  std::atomic<int> ran{0};
  pool.parallel_for(4, [&](std::size_t, int) {
    other.parallel_for(8, [&](std::size_t, int) { ran.fetch_add(1); });
  });
  EXPECT_EQ(ran.load(), 32);
}

// The determinism contract: a float reduction computed by writing
// per-chunk partials at their chunk index and folding them in index
// order must be bit-identical for every worker count, because float
// addition is not associative and completion order must not matter.
TEST(ThreadPool, OrderedReductionIsBitIdenticalAcrossWorkerCounts) {
  constexpr int kRows = 1537;
  constexpr int kChunks = 8;
  constexpr int kStep = (kRows + kChunks - 1) / kChunks;
  // Row values chosen so accumulation order visibly changes low bits:
  // wildly varying magnitudes.
  std::vector<float> rows(kRows);
  for (int i = 0; i < kRows; ++i) {
    rows[static_cast<std::size_t>(i)] =
        (i % 7 == 0 ? 1.0e6f : 1.0f) / (1.0f + static_cast<float>(i % 97));
  }

  const auto reduce_with = [&](int threads) {
    ThreadPool pool(threads);
    std::vector<float> partial(kChunks, 0.0f);
    pool.parallel_for(kChunks, [&](std::size_t chunk, int) {
      const int begin = static_cast<int>(chunk) * kStep;
      const int end = std::min(kRows, begin + kStep);
      float acc = 0.0f;  // serial left-to-right within the chunk
      for (int i = begin; i < end; ++i) {
        acc += rows[static_cast<std::size_t>(i)];
      }
      partial[chunk] = acc;  // written by index, never by completion
    });
    float total = 0.0f;  // folded in chunk order on the caller
    for (float p : partial) total += p;
    return total;
  };

  const float serial = reduce_with(1);
  const float two = reduce_with(2);
  const float eight = reduce_with(8);
  // Bit-identical, not approximately equal.
  EXPECT_EQ(serial, two);
  EXPECT_EQ(serial, eight);
}

// -------------------------------------------------------- unwind safety
// DESIGN.md §14: a throwing body must neither wedge the pool nor poison
// the next fan-out — the first exception is rethrown to the caller, the
// remaining indices are abandoned, and the pool is immediately reusable.

TEST(ThreadPool, BodyExceptionRethrowsToCaller) {
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    EXPECT_THROW(
        pool.parallel_for(16,
                          [&](std::size_t i, int) {
                            if (i == 5) throw std::runtime_error("boom");
                          }),
        std::runtime_error);
  }
}

TEST(ThreadPool, PoolSurvivesAndReusesAfterBodyException) {
  ThreadPool pool(4);
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(pool.parallel_for(
                     32, [&](std::size_t, int) { throw std::logic_error("x"); }),
                 std::logic_error);
    // The very next fan-out on the same pool must run every index.
    std::atomic<int> runs{0};
    pool.parallel_for(32, [&](std::size_t, int) {
      runs.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(runs.load(), 32);
  }
}

TEST(ThreadPool, ExceptionStopsFurtherClaims) {
  // After the first failure workers stop claiming fresh indices: the
  // count of executed bodies never reaches n (with slack for indices
  // already claimed when the failure landed).  Every other body waits
  // until index 0 has thrown, so no worker can run through the batch
  // while the one holding index 0 is descheduled before its throw; each
  // then sleeps 1 ms, so outrunning the short throw-to-flag window would
  // need the failing worker off-CPU for the ~10 s the rest would take.
  constexpr int kN = 10'000;
  ThreadPool pool(2);
  std::atomic<bool> thrown{false};
  std::atomic<int> executed{0};
  EXPECT_THROW(pool.parallel_for(
                   kN,
                   [&](std::size_t i, int) {
                     executed.fetch_add(1, std::memory_order_relaxed);
                     if (i == 0) {
                       thrown.store(true, std::memory_order_release);
                       throw std::runtime_error("x");
                     }
                     while (!thrown.load(std::memory_order_acquire)) {
                       std::this_thread::yield();
                     }
                     std::this_thread::sleep_for(std::chrono::milliseconds(1));
                   }),
               std::runtime_error);
  EXPECT_LT(executed.load(), kN);
}

TEST(ThreadPool, EveryWorkerThrowingStillUnwindsOnce) {
  ThreadPool pool(8);
  EXPECT_THROW(pool.parallel_for(
                   64, [&](std::size_t, int) { throw std::runtime_error("x"); }),
               std::runtime_error);
  std::atomic<int> runs{0};
  pool.parallel_for(8, [&](std::size_t, int) {
    runs.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(runs.load(), 8);
}

// ---- run_round ----------------------------------------------------------

/// Spins until `flag` is set; false after a generous timeout (so a
/// broken pool fails the test instead of hanging it).
bool await(const std::atomic<bool>& flag) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!flag.load(std::memory_order_acquire)) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

/// Posts `fn` as an n-member round once a worker idles (a fresh pool's
/// workers take a moment to get there; a refused round runs nothing).
void post_round(ThreadPool& pool, std::size_t n,
                const std::function<void(std::size_t)>& fn) {
  while (!pool.run_round(n, fn)) std::this_thread::yield();
}

TEST(ThreadPool, RoundRunsMemberZeroOnTheCallerAndSkipsUnclaimedMembers) {
  ThreadPool pool(2);
  constexpr std::size_t kN = 64;
  std::vector<std::atomic<int>> runs(kN);
  std::vector<std::thread::id> ran_on(kN);
  std::atomic<bool> member_started{false};
  bool waited = false;
  post_round(pool, kN, [&](std::size_t k) {
    runs[k].fetch_add(1);
    ran_on[k] = std::this_thread::get_id();
    if (k == 0) {
      // Close the round once a worker holds a member: the members no
      // worker has claimed by then never run.
      waited = await(member_started);
      return;
    }
    member_started.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });
  ASSERT_TRUE(waited) << "no idle worker claimed a member";
  EXPECT_EQ(runs[0].load(), 1);
  EXPECT_EQ(ran_on[0], std::this_thread::get_id());
  std::size_t ran = 0;
  for (std::size_t k = 1; k < kN; ++k) {
    EXPECT_LE(runs[k].load(), 1) << "member " << k;
    if (runs[k].load() == 0) continue;
    ++ran;
    EXPECT_NE(ran_on[k], std::this_thread::get_id()) << "member " << k;
  }
  EXPECT_GE(ran, 1u);
  EXPECT_LT(ran, kN - 1) << "members unclaimed at fn(0)'s return ran";
}

TEST(ThreadPool, RoundMemberExceptionRethrowsToThePoster) {
  ThreadPool pool(2);
  std::atomic<bool> member_ran{false};
  const auto member_throws = [&](std::size_t k) {
    if (k == 0) {
      ASSERT_TRUE(await(member_ran));
      return;
    }
    member_ran.store(true, std::memory_order_release);
    throw std::runtime_error("member");
  };
  EXPECT_THROW(post_round(pool, 2, member_throws), std::runtime_error);
  // The caller's own exception wins over a member's.
  member_ran.store(false);
  const auto both_throw = [&](std::size_t k) {
    if (k == 0) {
      if (!await(member_ran)) return;
      throw std::logic_error("caller");
    }
    member_ran.store(true, std::memory_order_release);
    throw std::runtime_error("member");
  };
  EXPECT_THROW(post_round(pool, 2, both_throw), std::logic_error);
  // The pool stays usable for fan-outs and for rounds.
  std::atomic<int> runs{0};
  pool.parallel_for(16, [&](std::size_t, int) { runs.fetch_add(1); });
  EXPECT_EQ(runs.load(), 16);
  std::atomic<int> members{0};
  post_round(pool, 2, [&](std::size_t) { members.fetch_add(1); });
  EXPECT_GE(members.load(), 1);
}

TEST(ThreadPool, ParallelForPublishedDuringALongMemberCompletes) {
  ThreadPool pool(2);
  std::atomic<bool> member_started{false};
  std::atomic<bool> member_done{false};
  std::thread poster([&] {
    post_round(pool, 2, [&](std::size_t k) {
      if (k == 0) {
        (void)await(member_started);
        return;
      }
      member_started.store(true, std::memory_order_release);
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      member_done.store(true, std::memory_order_release);
    });
  });
  ASSERT_TRUE(await(member_started));
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> counts(kN);
  pool.parallel_for(kN, [&](std::size_t i, int) { counts[i].fetch_add(1); });
  // The worker serving the member joins the fan-out once it returns.
  EXPECT_TRUE(member_done.load());
  poster.join();
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, RoundIsRefusedOnAOneThreadPoolAndWhileOneIsPosted) {
  std::atomic<int> ran{0};
  const std::function<void(std::size_t)> count = [&](std::size_t) {
    ran.fetch_add(1);
  };
  ThreadPool single(1);
  EXPECT_FALSE(single.run_round(2, count));
  EXPECT_EQ(ran.load(), 0);

  ThreadPool pool(3);
  std::atomic<bool> member_started{false};
  std::atomic<bool> checked{false};
  std::thread poster([&] {
    post_round(pool, 2, [&](std::size_t k) {
      if (k == 0) {
        (void)await(checked);
        return;
      }
      member_started.store(true, std::memory_order_release);
      (void)await(checked);
    });
  });
  ASSERT_TRUE(await(member_started));
  EXPECT_FALSE(pool.run_round(2, count));
  checked.store(true, std::memory_order_release);
  poster.join();
  EXPECT_EQ(ran.load(), 0);
}

}  // namespace
