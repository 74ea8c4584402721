#include "pipeline/executor.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <utility>

#include "obs/counters.h"
#include "util/error.h"
#include "util/faultpoint.h"

namespace hebs::pipeline {

namespace {

int resolve_thread_count(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(1, static_cast<int>(hw));
}

/// The pool whose task is executing on this thread, if any.  Lets
/// parallel_for distinguish true reentrancy (fn calling back into the
/// same pool — a guaranteed deadlock, rejected with an exception) from
/// an independent caller thread (legal; serializes on busy_).
thread_local const ThreadPool* t_running_pool = nullptr;

struct RunningPoolScope {
  explicit RunningPoolScope(const ThreadPool* pool) noexcept
      : prev_(t_running_pool) {
    t_running_pool = pool;
  }
  ~RunningPoolScope() { t_running_pool = prev_; }
  RunningPoolScope(const RunningPoolScope&) = delete;
  RunningPoolScope& operator=(const RunningPoolScope&) = delete;

 private:
  const ThreadPool* prev_;
};

/// The pool size capped at the hardware concurrency (0 = unknown
/// hardware: trust the pool size).
int cap_at_hardware(int threads) {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? threads : std::min(threads, static_cast<int>(hw));
}

}  // namespace

ThreadPool::ThreadPool(int threads)
    : thread_count_(resolve_thread_count(threads)),
      effective_concurrency_(cap_at_hardware(thread_count_)) {
  // With a single thread parallel_for runs inline; no workers needed.
  if (thread_count_ == 1) return;
  threads_.reserve(static_cast<std::size_t>(thread_count_));
  try {
    for (int w = 0; w < thread_count_; ++w) {
      threads_.emplace_back([this, w] { worker_loop(w); });
    }
  } catch (...) {
    // A spawn failed (thread limit): shut down the workers that did
    // start so their joinable std::threads don't terminate the process,
    // then surface the error to the caller.
    {
      util::MutexLock lock(mu_);
      stop_ = true;
      wake_workers_locked();
    }
    for (auto& t : threads_) t.join();
    throw;
  }
}

ThreadPool::~ThreadPool() {
  {
    util::MutexLock lock(mu_);
    stop_ = true;
    wake_workers_locked();
  }
  for (auto& t : threads_) t.join();
}

void ThreadPool::wake_workers_locked() {
  generation_.fetch_add(1, std::memory_order_release);
  // Taking round_mu_ orders the bump against a worker that read the
  // generation under it and is about to sleep: that one is asleep by
  // now, and the notify reaches it.
  { util::MutexLock lock(round_mu_); }
  idle_cv_.notify_all();
}

void ThreadPool::worker_loop(int worker) {
  // Every task and every round member this thread runs is this pool's.
  RunningPoolScope running(this);
  const bool serves = worker < effective_concurrency_;
  std::uint64_t seen = 0;
  for (;;) {
    idle(serves, seen);
    const std::function<void(std::size_t, int)>* task = nullptr;
    std::size_t n = 0;
    {
      util::MutexLock lock(mu_);
      if (stop_) return;
      // The task cannot change before this worker joins its barrier.
      seen = generation_.load(std::memory_order_relaxed);
      task = task_;
      n = task_n_;
    }
    std::exception_ptr error;
    // Workers beyond the effective-concurrency cap sit this call out
    // without touching the cursor (a fetch_add here would consume an
    // index nobody processes); they still join the barrier below.
    while (serves) {
      // Once any worker failed the call will rethrow, so stop claiming
      // indices instead of burning through the rest of the batch.
      if (failed_.load(std::memory_order_relaxed)) break;
      const std::size_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      try {
        (*task)(i, worker);
      } catch (...) {
        if (!error) error = std::current_exception();
        failed_.store(true, std::memory_order_relaxed);
      }
    }
    util::MutexLock lock(mu_);
    if (error && !first_error_) first_error_ = error;
    if (--active_ == 0) cv_done_.notify_all();
  }
}

void ThreadPool::set_idle_locked(bool now_idle) {
  idle_ += now_idle ? 1 : -1;
  idle_hint_.store(idle_ != 0, std::memory_order_relaxed);
}

void ThreadPool::idle(bool serves, std::uint64_t seen) {
  const auto published = [&] {
    return generation_.load(std::memory_order_acquire) != seen;
  };
  round_mu_.lock();
  if (serves) set_idle_locked(true);
  // No round event seen yet: the worker sleeps until one comes.
  std::chrono::steady_clock::time_point last_event{};
  while (!published()) {
    if (Round* r = round_; serves && r != nullptr && r->next < r->n) {
      const std::size_t k = r->next++;
      ++r->running;
      set_idle_locked(false);
      round_mu_.unlock();
      std::exception_ptr error;
      try {
        (*r->fn)(k);
      } catch (...) {
        error = std::current_exception();
      }
      round_mu_.lock();
      if (error && !r->error) r->error = error;
      if (--r->running == 0) round_done_.notify_all();
      set_idle_locked(true);
      last_event = std::chrono::steady_clock::now();
      continue;
    }
    // Nothing to claim.  As many workers as a round has members for
    // poll the event count without the lock until kServeSpin has passed
    // since the last round event; the rest sleep until a post finds too
    // few polling, a publication or the stop.  The rounds of one search
    // come a probe apart, so a worker woken by the first one stays hot
    // for the rest.
    const std::uint64_t seen_events = events_.load(std::memory_order_acquire);
    const auto polling = [&] {
      return std::chrono::steady_clock::now() - last_event < kServeSpin;
    };
    constexpr int kMaxPolling = static_cast<int>(ProbeLanes::kMaxRound) - 1;
    if (serves && polling_ < kMaxPolling && polling()) {
      ++polling_;
      round_mu_.unlock();
      while (events_.load(std::memory_order_acquire) == seen_events &&
             !published() && polling()) {
        std::this_thread::yield();
      }
      round_mu_.lock();
      --polling_;
    } else {
      idle_cv_.wait(round_mu_);
    }
    if (events_.load(std::memory_order_relaxed) != seen_events) {
      last_event = std::chrono::steady_clock::now();
    }
  }
  if (serves) set_idle_locked(false);
  round_mu_.unlock();
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, int)>& fn) {
  if (n == 0) return;
  HEBS_REQUIRE(t_running_pool != this,
               "parallel_for is not reentrant: the body must not call "
               "back into the pool that is running it");
  obs::add(obs::Counter::kParallelForCalls);
  obs::add(obs::Counter::kParallelForItems, n);
  if (threads_.empty()) {
    RunningPoolScope running(this);
    for (std::size_t i = 0; i < n; ++i) fn(i, 0);
    return;
  }
  std::exception_ptr error;
  {
    util::MutexLock lock(mu_);
    // Concurrent external callers are legal and serialize here, FIFO
    // by wakeup: busy_ covers publication through teardown, so a
    // waiting caller can never observe (or clobber) another call's
    // task state.  A fan-out that finds the pool busy is the queue
    // depth the observability layer reports.
    if (busy_) {
      obs::add(obs::Counter::kParallelForQueued);
      while (busy_) cv_done_.wait(mu_);
    }
    busy_ = true;
    task_ = &fn;
    task_n_ = n;
    cursor_.store(0, std::memory_order_relaxed);
    failed_.store(false, std::memory_order_relaxed);
    active_ = static_cast<int>(threads_.size());
    first_error_ = nullptr;
    wake_workers_locked();
    while (active_ != 0) cv_done_.wait(mu_);
    task_ = nullptr;
    error = std::exchange(first_error_, nullptr);
    busy_ = false;
    // Wake the next queued caller (cv_done_ doubles as the busy_
    // handoff; predicates disambiguate).
    cv_done_.notify_all();
  }
  // Rethrow outside the lock: a throwing unwind must not hold mu_.
  if (error) std::rethrow_exception(error);
}

bool ThreadPool::run_round(std::size_t n,
                           const std::function<void(std::size_t)>& fn) {
  // "Only when a worker idles": a pool whose workers are all busy
  // answers without the lock.
  if (n < 2 || !idle_hint_.load(std::memory_order_relaxed)) return false;
  Round round;
  round.fn = &fn;
  round.n = n;
  bool wake = false;
  {
    util::MutexLock lock(round_mu_);
    if (idle_ == 0 || round_ != nullptr) return false;
    round_ = &round;
    wake = polling_ < static_cast<int>(n) - 1;
  }
  events_.fetch_add(1, std::memory_order_release);
  if (wake) idle_cv_.notify_all();
  std::exception_ptr error;
  try {
    fn(0);
  } catch (...) {
    error = std::current_exception();
  }
  {
    util::MutexLock lock(round_mu_);
    // Members no worker has claimed by now are skipped.  The round stays
    // posted until its claimed members return: the next round's members
    // draw from the same member pools, one probe at a time.
    round.next = round.n;
    while (round.running != 0) round_done_.wait(round_mu_);
    round_ = nullptr;
    if (!error) error = round.error;
  }
  if (error) std::rethrow_exception(error);
  return true;
}

bool ProbeLanes::available(const ThreadPool& pool) noexcept {
  return pool.effective_concurrency() >= 2 && !util::fault::any_armed();
}

int ProbeLanes::width() const noexcept {
  const int claimants = pool_.effective_concurrency() + 1;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? claimants : std::min(claimants, static_cast<int>(hw));
}

bool ProbeLanes::run(std::size_t n,
                     const std::function<void(std::size_t)>& fn) {
  HEBS_REQUIRE(n <= members_.size() + 1, "round wider than the member pools");
  const auto member = [&](std::size_t k) {
    util::PoolScope scope(k == 0 ? nullptr : members_[k - 1].get());
    fn(k);
  };
  // Wrapping a reference: building the std::function allocates nothing.
  return pool_.run_round(n, std::cref(member));
}

void ProbeLanes::warm(const Shape& shape,
                      const std::function<void(std::size_t)>& probe) {
  if (members_.front() == nullptr) return;  // heap: nothing to warm
  {
    // Claimed under the lock, run outside it: a frame of the same shape
    // deciding meanwhile skips the warm rather than waits for it.
    util::MutexLock lock(mu_);
    if (std::find(warm_.begin(), warm_.end(), shape) != warm_.end()) return;
    warm_.push_back(shape);
  }
  std::array<bool, kMaxRound - 1> warmed{};
  const auto member = [&](std::size_t k) {
    util::PoolScope scope(members_[k].get());
    probe(k);
    warmed[k] = true;
  };
  (void)pool_.run_round(members_.size(), std::cref(member));
  for (std::size_t k = 0; k < members_.size(); ++k) {
    if (!warmed[k]) member(k);
  }
}

}  // namespace hebs::pipeline
