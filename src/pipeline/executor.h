// Thread-pool executor for the pipeline engine.
//
// A fixed pool of persistent worker threads with a fork-join
// parallel_for.  Indices are handed out dynamically (work stealing via a
// shared atomic cursor) so imbalanced per-frame costs — hebs_exact's
// bisection depth varies with image content — do not serialize the
// batch.  Each executing thread has a stable worker id, which the engine
// uses to maintain per-worker FrameContext scratch state.  Output
// determinism is the caller's job: write results by index, never by
// completion order.
//
// Locking discipline (machine-checked under Clang, DESIGN.md §12): the
// pool has exactly one mutex, mu_, guarding the fork-join handshake
// state (the published task, the join counter, the wake generation, the
// stop flag and the first captured exception).  The two atomics — the
// work-claiming cursor and the failure flag — are intentionally outside
// the lock: workers touch them on every claimed index, and pulling them
// under mu_ would serialize the claim path.  They carry no ordering
// duties (the mutex handshake publishes the task; results are written
// by index), so relaxed loads/stores suffice.
#pragma once

#include <cstddef>
#include <functional>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/pool.h"
#include "util/thread_annotations.h"

namespace hebs::pipeline {

class ThreadPool {
 public:
  /// `threads` <= 0 selects the hardware concurrency (at least 1).
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int thread_count() const noexcept { return thread_count_; }

  /// Workers that actually claim indices in a parallel_for: the pool
  /// size capped at the hardware concurrency.  Workers beyond the cap
  /// wake, decrement the join counter and go back to sleep — running
  /// more claimants than cores only adds context switching and cache
  /// thrashing per index (the measured engine-8t per-frame regression
  /// on small machines).  Worker ids stay stable; which indices a
  /// worker claims never affects results (written by index).
  int effective_concurrency() const noexcept;

  /// Runs fn(index, worker) for every index in [0, n); blocks until the
  /// call completes.  `worker` is in [0, thread_count()).  With one
  /// thread everything runs inline on the calling thread.  If fn
  /// throws, remaining unclaimed indices are skipped (in-flight ones
  /// finish) and the first exception is rethrown to the caller.
  /// Safe to call from multiple threads: concurrent calls serialize on
  /// the pool (one fan-out at a time, FIFO by lock acquisition).  Not
  /// reentrant — fn must not call parallel_for on the same pool (the
  /// claiming worker would deadlock waiting for its own batch); doing
  /// so throws hebs::util::InvalidArgument instead.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, int)>& fn)
      HEBS_EXCLUDES(mu_);

  /// Non-blocking fan-out for opportunistic work (the speculative
  /// probes of DESIGN.md §11).  When the pool is idle — no fan-out in
  /// flight and no caller queued for one — the calling thread runs
  /// fn(0, thread_count()) while the workers claim indices [1, n); the
  /// indices no worker has claimed by the time fn(0) returns are
  /// skipped, the call waits for the claimed ones and returns true.  So
  /// the caller never does more than its own index, and a slow-waking
  /// worker costs at most the rest of its claimed index.  When the pool
  /// is not idle it runs nothing and returns false at once; so do a
  /// one-thread pool (nothing idle to borrow) and a call from inside one
  /// of this pool's tasks.  Exceptions propagate as in parallel_for.
  /// Workers that took part stay awake (yielding) for kRoundSpin after
  /// the round, ready for the next one.
  bool try_parallel_for(std::size_t n,
                        const std::function<void(std::size_t, int)>& fn)
      HEBS_EXCLUDES(mu_);

 private:
  void worker_loop(int worker) HEBS_EXCLUDES(mu_);
  /// Publishes `fn` to the workers and wakes them (busy_ must be
  /// clear; sets it).
  void publish_locked(std::size_t n,
                      const std::function<void(std::size_t, int)>& fn,
                      bool opportunistic) HEBS_REQUIRES(mu_);
  /// Waits for every worker to leave the fan-out, tears the task down,
  /// hands the pool to the next queued caller and returns the first
  /// captured exception.
  std::exception_ptr join_locked() HEBS_REQUIRES(mu_);

  /// How long workers keep polling for the next opportunistic round.
  static constexpr std::chrono::microseconds kRoundSpin{4000};

  int thread_count_;
  std::vector<std::thread> threads_;

  util::Mutex mu_;
  util::CondVar cv_work_;
  util::CondVar cv_done_;
  /// The task being fanned out, published to workers under mu_ by
  /// parallel_for and cleared before it returns.
  const std::function<void(std::size_t, int)>* task_ HEBS_GUARDED_BY(mu_) =
      nullptr;
  std::size_t task_n_ HEBS_GUARDED_BY(mu_) = 0;
  int task_limit_ HEBS_GUARDED_BY(mu_) = 0;
  /// The task came from try_parallel_for (its workers spin afterwards).
  bool task_opportunistic_ HEBS_GUARDED_BY(mu_) = false;
  /// generation_, mirrored for the workers' lock-free spin (a stale
  /// read only ends the spin early or late; the handshake under mu_
  /// decides).
  std::atomic<std::uint64_t> published_{0};
  /// Claim cursor and failure latch: lock-free by design (see header
  /// comment); both are reset under mu_ before each fan-out.
  std::atomic<std::size_t> cursor_{0};
  std::atomic<bool> failed_{false};
  int active_ HEBS_GUARDED_BY(mu_) = 0;
  std::uint64_t generation_ HEBS_GUARDED_BY(mu_) = 0;
  bool stop_ HEBS_GUARDED_BY(mu_) = false;
  /// True from task publication until the owning parallel_for call has
  /// torn the task down again; concurrent external callers queue on it.
  bool busy_ HEBS_GUARDED_BY(mu_) = false;
  /// parallel_for callers waiting on busy_: try_parallel_for yields to
  /// them, so opportunistic rounds never starve a queued batch.
  int queued_ HEBS_GUARDED_BY(mu_) = 0;
  std::exception_ptr first_error_ HEBS_GUARDED_BY(mu_);
};

/// The idle workers a pool lends the engine's persistent single-frame
/// slot for speculative search probes (DESIGN.md §11, "Speculative
/// probes on idle workers").  Round member k ≥ 1 always allocates from
/// lane pool k − 1, whichever worker runs it, so each lane pool serves
/// one probe at a time in a fixed sequence and the speculating steady
/// state allocates nothing; the caller (member 0) keeps its own scope.
/// One caller at a time (the slot's lock holder).
class ProbeLanes {
 public:
  /// `pools` selects recycling lane pools (false = plain heap).
  ProbeLanes(ThreadPool& pool, bool pools, util::PoolOptions pool_opts);

  ProbeLanes(const ProbeLanes&) = delete;
  ProbeLanes& operator=(const ProbeLanes&) = delete;

  /// False when speculation cannot help or must not run: fewer than
  /// two effective workers, or any fault point armed (injected runs take
  /// exactly the serial path, so their hit counts do not move).
  bool available() const noexcept;

  /// Probes one round can run at once: the caller plus the claiming
  /// workers, capped at the hardware concurrency.
  int width() const noexcept;

  /// Runs fn(0) on the caller and fn(k), k in [1, n), on the pool's
  /// idle workers that claim k before fn(0) returns (the rest are
  /// skipped), and returns true; returns false, running nothing, when
  /// the pool is busy (ThreadPool::try_parallel_for).
  bool run(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  ThreadPool& pool_;
  std::vector<std::unique_ptr<util::BufferPool>> pools_;  ///< per member
  /// The round being run: set by run() before the fan-out publishes it.
  const std::function<void(std::size_t)>* round_ = nullptr;
  /// Built once: a per-round std::function would allocate.
  std::function<void(std::size_t, int)> body_;
};

}  // namespace hebs::pipeline
