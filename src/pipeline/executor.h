// Thread-pool executor for the pipeline engine.
//
// A fixed pool of persistent worker threads with a fork-join
// parallel_for.  Indices are handed out dynamically (work stealing via a
// shared atomic cursor) so imbalanced per-frame costs — hebs_exact's
// bisection depth varies with image content — do not serialize the
// batch.  Each executing thread has a stable worker id, which the engine
// uses to maintain per-worker FrameContext scratch state.  Output
// determinism is the caller's job: write results by index, never by
// completion order.  A worker with no index left to claim serves probe
// rounds (run_round): whether the pool is idle between calls or the
// worker's share of a running call is done, it runs the members of a
// posted round it claims.
//
// Locking discipline (machine-checked under Clang, DESIGN.md §12): the
// pool has two mutexes.  mu_ guards the fork-join handshake state (the
// published task, the join counter, the stop flag, the busy latch and
// the first captured exception); round_mu_ guards the posted round and
// the idle workers' bookkeeping, and is where idle workers sleep.  The
// atomics — the work-claiming cursor, the failure flag, the task
// generation and the round mirrors — are intentionally outside the
// locks: workers touch them on every claimed index or poll them while
// idle, and pulling them under a mutex would serialize the claim path.
// Lock order: mu_ before round_mu_ (a publication wakes the idle
// workers under both).
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

  /// Workers that actually claim indices in a parallel_for, and the only
  /// ones that serve rounds: the pool size capped at the hardware
  /// concurrency.  Workers beyond the cap wake, decrement the join
  /// counter and go back to sleep — running more claimants than cores
  /// only adds context switching and cache thrashing per index (the
  /// measured engine-8t per-frame regression on small machines).  Worker
  /// ids stay stable; which indices a worker claims never affects
  /// results (written by index).
  int effective_concurrency() const noexcept { return effective_concurrency_; }

  /// Runs fn(index, worker) for every index in [0, n); blocks until the
  /// call completes.  `worker` is in [0, thread_count()).  With one
  /// thread everything runs inline on the calling thread.  If fn
  /// throws, remaining unclaimed indices are skipped (in-flight ones
  /// finish) and the first exception is rethrown to the caller.
  /// Safe to call from multiple threads: concurrent calls serialize on
  /// the pool (one fan-out at a time, FIFO by lock acquisition).  A
  /// worker running a round member takes the call after that member.
  /// Not reentrant — fn must not call parallel_for on the same pool
  /// (the claiming worker would deadlock waiting for its own batch);
  /// doing so throws hebs::util::InvalidArgument instead.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, int)>& fn)
      HEBS_EXCLUDES(mu_, round_mu_);

  /// Runs one round of opportunistic work — the speculative probes of
  /// DESIGN.md §11: fn(0) on the caller and fn(k), k in [1, n), on the
  /// idle workers that claim k before fn(0) returns (the rest are
  /// skipped); waits for the claimed ones and returns true.  Returns
  /// false, running nothing, when no worker idles, when another round
  /// is posted (one at a time, until its claimed members return) and on
  /// a one-thread pool; a pool nobody idles on answers with one relaxed
  /// load.  Safe from any thread, a task of this pool's included.
  /// Exceptions propagate, the caller's before a member's.
  bool run_round(std::size_t n, const std::function<void(std::size_t)>& fn)
      HEBS_EXCLUDES(round_mu_);

 private:
  /// The posted round, on its poster's stack until run_round returns.
  struct Round {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t n = 0;
    std::size_t next = 1;     ///< next unclaimed member
    std::size_t running = 0;  ///< claimed members not yet returned
    std::exception_ptr error;  ///< a member's first exception
  };

  /// How long an idle worker polls for rounds after a round event before
  /// it sleeps: a speculating search posts its rounds a probe apart, and
  /// waking a sleeping worker can cost a large share of a probe.
  static constexpr std::chrono::microseconds kServeSpin{4000};

  void worker_loop(int worker) HEBS_EXCLUDES(mu_, round_mu_);
  /// The idle loop: runs the round members it claims (`serves`) until a
  /// task newer than generation `seen` is published or the pool stops.
  void idle(bool serves, std::uint64_t seen) HEBS_EXCLUDES(round_mu_);
  /// Bumps the generation and wakes every idle worker.
  void wake_workers_locked() HEBS_REQUIRES(mu_) HEBS_EXCLUDES(round_mu_);
  /// Counts the calling worker in or out of the idle servers.
  void set_idle_locked(bool now_idle) HEBS_REQUIRES(round_mu_);

  int thread_count_;
  int effective_concurrency_;
  std::vector<std::thread> threads_;

  util::Mutex mu_;
  util::CondVar cv_done_;
  /// The task being fanned out, published to workers under mu_ by
  /// parallel_for and cleared before it returns.
  const std::function<void(std::size_t, int)>* task_ HEBS_GUARDED_BY(mu_) =
      nullptr;
  std::size_t task_n_ HEBS_GUARDED_BY(mu_) = 0;
  /// Claim cursor and failure latch: lock-free by design (see header
  /// comment); both are reset under mu_ before each fan-out.
  std::atomic<std::size_t> cursor_{0};
  std::atomic<bool> failed_{false};
  int active_ HEBS_GUARDED_BY(mu_) = 0;
  bool stop_ HEBS_GUARDED_BY(mu_) = false;
  /// True from task publication until the owning parallel_for call has
  /// torn the task down again; concurrent external callers queue on it.
  bool busy_ HEBS_GUARDED_BY(mu_) = false;
  std::exception_ptr first_error_ HEBS_GUARDED_BY(mu_);
  /// Bumped under mu_ by every publication and by the stop: idle
  /// workers watch it without mu_.
  std::atomic<std::uint64_t> generation_{0};

  util::Mutex round_mu_;
  /// Idle workers sleep on it; a poster waits on `round_done_`.
  util::CondVar idle_cv_;
  util::CondVar round_done_;
  Round* round_ HEBS_GUARDED_BY(round_mu_) = nullptr;
  int idle_ HEBS_GUARDED_BY(round_mu_) = 0;     ///< serving workers idle
  int polling_ HEBS_GUARDED_BY(round_mu_) = 0;  ///< of them, polling
  /// idle_ != 0, read lock-free by run_round.
  std::atomic<bool> idle_hint_{false};
  /// Bumped on every round post: polling workers watch it.
  std::atomic<std::uint64_t> events_{0};
};

/// What a search sees of the speculative probe rounds (DESIGN.md §11,
/// "Speculative probes on idle workers").  A deciding frame's search
/// posts a round — the probe its serial walk blocks on plus the probes
/// it may ask for next — on the pool (ThreadPool::run_round), whose
/// idle workers run the members they claim.
///
/// Member k ≥ 1 of a round allocates from member pool k − 1 whichever
/// worker runs it; the pool posts one round at a time, until its
/// claimed members return, so each member pool serves one probe at a
/// time.  Which members run, and what they probe, depends on timing;
/// warm() fills the member pools first, once per frame shape, so a
/// speculating steady state allocates nothing whichever members ran.
class ProbeLanes {
 public:
  /// Probes per round: the blocking one plus two speculative ones.  A
  /// fourth concurrent probe measured slower on 4 vCPUs (memory
  /// contention slows the caller's own probe more than the extra one
  /// saves), so at most kMaxRound − 1 idle pool workers poll for rounds.
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
  ProbeLanes(ThreadPool& pool, MemberPools members)
      : pool_(pool), members_(std::move(members)) {}

  ProbeLanes(const ProbeLanes&) = delete;
  ProbeLanes& operator=(const ProbeLanes&) = delete;

  /// False when speculation cannot help or must not run: fewer than
  /// two effective workers, or any fault point armed (injected runs take
  /// exactly the serial path, so their hit counts do not move).
  static bool available(const ThreadPool& pool) noexcept;
  bool available() const noexcept { return available(pool_); }

  /// Probes one round can run at once: the caller plus the claiming
  /// workers, capped at the hardware concurrency.
  int width() const noexcept;

  /// ThreadPool::run_round, with member k ≥ 1 allocating from member
  /// pool k − 1.
  bool run(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// What one probe of a frame allocates depends only on these.
  struct Shape {
    int width = 0;
    int height = 0;
    int levels = 0;
    int segments = 0;
    bool operator==(const Shape&) const = default;
  };

  /// Unless the member pools were warmed for frames of `shape` before,
  /// runs `probe(k)` — one probe of the deciding frame, as heavy as any
  /// a round can hold, into the k-th of distinct outputs — under member
  /// pool k for every k, so every block a member can need is on its
  /// pool's free lists before a round runs.  The probes go out as one
  /// round; one no worker claims runs on the caller after it.
  void warm(const Shape& shape, const std::function<void(std::size_t)>& probe)
      HEBS_EXCLUDES(mu_);

 private:
  ThreadPool& pool_;
  const MemberPools members_;
  util::Mutex mu_;
  /// Every shape the member pools were warmed for.  A pool keeps each
  /// block returned to it (unless EngineOptions::pool_max_bytes caps
  /// it), so a shape warmed once stays warm: the list grows by one
  /// entry per distinct shape, as the pools' free lists do, and each
  /// shape costs its two warm-up probes once per board.
  std::vector<Shape> warm_ HEBS_GUARDED_BY(mu_);
};

}  // namespace hebs::pipeline
