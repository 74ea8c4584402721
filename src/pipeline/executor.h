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
// stop flag and the first captured exception).  The atomics — the
// work-claiming cursor, the failure flag and the queued-caller mirror —
// are intentionally outside the lock: workers touch them on every
// claimed index (lent workers poll the mirror while they wait), and
// pulling them under mu_ would serialize the claim path.  They carry no
// ordering duties (the mutex handshake publishes the task; results are
// written by index), so relaxed loads/stores suffice.
#pragma once

#include <cstddef>
#include <functional>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <utility>
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
  /// worker claims never affects results (written by index).  Read once,
  /// with the pool size, so a caller that plans around it (a batch's
  /// serving workers) sees the same count every task is published with.
  int effective_concurrency() const noexcept { return effective_concurrency_; }

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

  /// Non-blocking fan-out for opportunistic work: the speculative
  /// probe lanes of DESIGN.md §11 recruit idle workers with it.  When
  /// the pool is idle — no fan-out in flight and no caller queued for
  /// one — the calling thread runs fn(0, thread_count()) while idle
  /// workers run fn(k, worker) for the indices k in [1, n) they claim,
  /// and the call returns true once fn(0) has returned and every worker
  /// has left.  So fn(k) must return promptly once fn(0) has (an index
  /// claimed late still runs: it must find its work gone), and should
  /// return as soon as yield_requested() turns true.  The workers' share
  /// is torn down by the last worker to leave, so a parallel_for caller
  /// that queues meanwhile starts once they have left, even while fn(0)
  /// still runs.  When the pool is not idle it runs nothing and returns
  /// false at once; so do a one-thread pool (nothing idle to borrow) and
  /// a call from inside one of this pool's tasks.  Exceptions propagate
  /// as in parallel_for.
  bool try_parallel_for(std::size_t n,
                        const std::function<void(std::size_t, int)>& fn)
      HEBS_EXCLUDES(mu_);

  /// True while a parallel_for caller waits for the pool: workers lent
  /// by try_parallel_for poll it and leave, so opportunistic work never
  /// starves a queued batch.  Lock-free (a stale read only delays the
  /// departure by one poll).
  bool yield_requested() const noexcept {
    return queued_hint_.load(std::memory_order_relaxed);
  }

 private:
  void worker_loop(int worker) HEBS_EXCLUDES(mu_);
  /// Publishes `fn` to the workers and wakes them (busy_ must be
  /// clear; sets it).
  void publish_locked(std::size_t n,
                      const std::function<void(std::size_t, int)>& fn,
                      bool opportunistic) HEBS_REQUIRES(mu_);
  /// Tears the published task down and hands the pool to the next
  /// queued caller; returns the first captured exception.
  std::exception_ptr teardown_locked() HEBS_REQUIRES(mu_);

  int thread_count_;
  int effective_concurrency_;
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
  /// The task came from try_parallel_for: its last worker tears it
  /// down, handing its workers' first exception to `lent_error_`.
  bool task_opportunistic_ HEBS_GUARDED_BY(mu_) = false;
  std::exception_ptr* lent_error_ HEBS_GUARDED_BY(mu_) = nullptr;
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
  /// them, so opportunistic work never starves a queued batch.
  int queued_ HEBS_GUARDED_BY(mu_) = 0;
  /// queued_ != 0, mirrored for yield_requested().
  std::atomic<bool> queued_hint_{false};
  std::exception_ptr first_error_ HEBS_GUARDED_BY(mu_);
};

/// The board speculative probe rounds travel on (DESIGN.md §11,
/// "Speculative probes on idle workers").  A deciding frame's search
/// posts a round — the probe its serial walk blocks on plus the probes
/// it may ask for next — and workers with nothing else to do *serve*
/// the board, running the members they claim.  A one-frame call lends
/// the pool's idle workers (ThreadPool::try_parallel_for) as servers for
/// its frame; in a batch, a worker whose frames are decided serves the
/// frames still deciding.  The search sees available/width/run/warm.
///
/// One round is posted at a time, until its claimed members return, and
/// member k ≥ 1 of it allocates from the board's member pool k − 1
/// whichever worker runs it, so each member pool serves one probe at a
/// time.  Which members run, and what
/// they probe, depends on timing; warm() fills the member pools from the
/// deciding thread first, once per frame shape, so a speculating steady
/// state allocates nothing whichever members ran.
///
/// Locking discipline (DESIGN.md §12): one mutex guards the posted
/// round, the idle-server count, the open-frame count and the warm
/// shapes; `idle_hint_` and `events_` mirror changes for lock-free reads
/// on the hot paths.
class ProbeLanes {
 public:
  /// Probes per round: the blocking one plus two speculative ones.  A
  /// fourth concurrent probe measured slower on 4 vCPUs (memory
  /// contention slows the caller's own probe more than the extra one
  /// saves), so a one-frame call lends kMaxRound − 1 servers.
  static constexpr std::size_t kMaxRound = 3;

  /// Frames below this many pixels search serially.  Below ~64² a
  /// probe costs tens of µs, the order of a round's handoff, and
  /// speculation measured no gain there (4 vCPUs; about 5% at 96²).
  /// The floor sits above 96² so the small-frame tests and the 96²
  /// latency rows keep exercising the serial search.
  static constexpr std::size_t kMinPixels = 128 * 128;

  using MemberPools =
      std::array<std::unique_ptr<util::BufferPool>, kMaxRound - 1>;

  /// `members` (null entries = plain heap) are the member pools.
  ProbeLanes(const ThreadPool& pool, MemberPools members)
      : pool_(pool), members_(std::move(members)) {}

  ProbeLanes(const ProbeLanes&) = delete;
  ProbeLanes& operator=(const ProbeLanes&) = delete;

  // ---- the search's side ----------------------------------------------

  /// False when speculation cannot help or must not run: fewer than
  /// two effective workers, or any fault point armed (injected runs take
  /// exactly the serial path, so their hit counts do not move).
  static bool available(const ThreadPool& pool) noexcept;
  bool available() const noexcept { return available(pool_); }

  /// Probes one round can run at once: the caller plus the claiming
  /// workers, capped at the hardware concurrency.
  int width() const noexcept;

  /// Runs fn(0) on the caller and fn(k), k in [1, n), on the servers
  /// that claim k before fn(0) returns (the rest are skipped); waits for
  /// the claimed ones and returns true.  Returns false, running nothing,
  /// when no server is waiting or another frame's round is posted.
  /// Exceptions propagate (the caller's first).
  bool run(std::size_t n, const std::function<void(std::size_t)>& fn)
      HEBS_EXCLUDES(mu_);

  /// What one probe of a frame allocates depends only on these.
  struct Shape {
    int width = 0;
    int height = 0;
    int levels = 0;
    int segments = 0;
    bool operator==(const Shape&) const = default;
  };

  /// Unless the member pools were warmed for frames of `shape` before,
  /// runs `probe` — one probe of the deciding frame, as heavy as any a
  /// round can hold — once under each member pool, so every block a
  /// member can need is on its pool's free lists before a round runs.
  void warm(const Shape& shape, const std::function<void()>& probe)
      HEBS_EXCLUDES(mu_);

  // ---- the engine's side ----------------------------------------------

  /// Opens the board for `frames` deciding frames; serve() returns once
  /// each has called finish() (or close() ran).
  void open(std::size_t frames) HEBS_EXCLUDES(mu_);
  void finish() HEBS_EXCLUDES(mu_);
  /// Sends every server home now (a frame left by exception).
  void close() HEBS_EXCLUDES(mu_);

  /// Runs posted members until every open frame is final — or, with
  /// `lent`, until a parallel_for caller queues on the pool
  /// (ThreadPool::yield_requested).
  void serve(bool lent) HEBS_EXCLUDES(mu_);

 private:
  /// The posted round, on its poster's stack until run() returns.
  struct Round {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t n = 0;
    std::size_t next = 1;     ///< next unclaimed member
    std::size_t running = 0;  ///< claimed members not yet returned
    std::exception_ptr error;  ///< a member's first exception
  };

  /// How long an idle server polls before it sleeps: a speculating
  /// search posts its rounds a probe apart, and waking a sleeping
  /// server can cost a large share of a probe.
  static constexpr std::chrono::microseconds kServeSpin{4000};
  /// A lent server's sleep between yield_requested() polls.
  static constexpr std::chrono::microseconds kLentNap{500};

  const ThreadPool& pool_;
  const MemberPools members_;
  util::Mutex mu_;
  util::CondVar cv_;
  Round* round_ HEBS_GUARDED_BY(mu_) = nullptr;
  std::size_t open_ HEBS_GUARDED_BY(mu_) = 0;  ///< frames not yet final
  int idle_ HEBS_GUARDED_BY(mu_) = 0;          ///< servers waiting
  /// Every shape the member pools were warmed for.  A pool keeps each
  /// block returned to it (unless EngineOptions::pool_max_retained_bytes
  /// caps it), so a shape warmed once stays warm: the list grows by one
  /// entry per distinct shape, as the pools' free lists do, and each
  /// shape costs its two warm-up probes once per board.
  std::vector<Shape> warm_ HEBS_GUARDED_BY(mu_);
  /// idle_ != 0, read lock-free by run(): a board nobody serves costs a
  /// deciding frame one relaxed load per probe.
  std::atomic<bool> idle_hint_{false};
  /// Bumped on every post, finish and close: idle servers spin on it.
  std::atomic<std::uint64_t> events_{0};
};

}  // namespace hebs::pipeline
