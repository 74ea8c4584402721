#include "pipeline/executor.h"

#include <algorithm>
#include <chrono>

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
    }
    cv_work_.notify_all();
    for (auto& t : threads_) t.join();
    throw;
  }
}

ThreadPool::~ThreadPool() {
  {
    util::MutexLock lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::worker_loop(int worker) {
  std::uint64_t seen_generation = 0;
  for (;;) {
    const std::function<void(std::size_t, int)>* task = nullptr;
    std::size_t n = 0;
    int limit = 0;
    {
      util::MutexLock lock(mu_);
      while (!stop_ && generation_ == seen_generation) cv_work_.wait(mu_);
      if (stop_) return;
      seen_generation = generation_;
      task = task_;
      n = task_n_;
      limit = task_limit_;
    }
    std::exception_ptr error;
    RunningPoolScope running(this);
    // Workers beyond the effective-concurrency cap sit this call out
    // without touching the cursor (a fetch_add here would consume an
    // index nobody processes); they still join the barrier below.
    while (worker < limit) {
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
    {
      util::MutexLock lock(mu_);
      if (error && !first_error_) first_error_ = error;
      if (--active_ == 0) {
        // A lent task ends with its last worker: its caller may still
        // be running fn(0), and a queued caller need not wait for that.
        if (task_opportunistic_) {
          std::exception_ptr* const lent_error = lent_error_;
          *lent_error = teardown_locked();
        }
        cv_done_.notify_all();
      }
    }
  }
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
      ++queued_;
      queued_hint_.store(true, std::memory_order_relaxed);
      while (busy_) cv_done_.wait(mu_);
      --queued_;
      queued_hint_.store(queued_ != 0, std::memory_order_relaxed);
    }
    publish_locked(n, fn, /*opportunistic=*/false);
    while (active_ != 0) cv_done_.wait(mu_);
    error = teardown_locked();
  }
  // Rethrow outside the lock: a throwing unwind must not hold mu_.
  if (error) std::rethrow_exception(error);
}

bool ThreadPool::try_parallel_for(
    std::size_t n, const std::function<void(std::size_t, int)>& fn) {
  if (n == 0) return true;
  if (threads_.empty() || t_running_pool == this) return false;
  std::exception_ptr lent_error;
  std::uint64_t generation = 0;
  {
    util::MutexLock lock(mu_);
    if (busy_ || queued_ != 0) return false;
    obs::add(obs::Counter::kParallelForCalls);
    obs::add(obs::Counter::kParallelForItems, n);
    publish_locked(n, fn, /*opportunistic=*/true);
    lent_error_ = &lent_error;
    generation = generation_;
  }
  // Index 0 is the caller's, run outside the lock like every worker's
  // share; busy_ keeps other callers out until the workers have left.
  std::exception_ptr error;
  {
    RunningPoolScope running(this);
    try {
      fn(0, thread_count_);
    } catch (...) {
      error = std::current_exception();
    }
  }
  {
    // The last worker out tore the task down (or will): wait for that,
    // or for a queued caller's task that already replaced it.
    util::MutexLock lock(mu_);
    while (busy_ && generation_ == generation) cv_done_.wait(mu_);
  }
  if (!error) error = lent_error;
  if (error) std::rethrow_exception(error);
  return true;
}

void ThreadPool::publish_locked(
    std::size_t n, const std::function<void(std::size_t, int)>& fn,
    bool opportunistic) {
  busy_ = true;
  task_ = &fn;
  task_n_ = n;
  task_limit_ = effective_concurrency_;
  task_opportunistic_ = opportunistic;
  // An opportunistic task reserves index 0 for its caller.
  cursor_.store(opportunistic ? 1 : 0, std::memory_order_relaxed);
  failed_.store(false, std::memory_order_relaxed);
  active_ = static_cast<int>(threads_.size());
  first_error_ = nullptr;
  ++generation_;
  cv_work_.notify_all();
}

std::exception_ptr ThreadPool::teardown_locked() {
  task_ = nullptr;
  task_opportunistic_ = false;
  lent_error_ = nullptr;
  std::exception_ptr error = first_error_;
  first_error_ = nullptr;
  busy_ = false;
  // Wake the next queued caller (cv_done_ doubles as the busy_
  // handoff; predicates disambiguate).
  cv_done_.notify_all();
  return error;
}

bool ProbeLanes::available(const ThreadPool& pool) noexcept {
  return pool.effective_concurrency() >= 2 && !util::fault::any_armed();
}

int ProbeLanes::width() const noexcept {
  const int claimants = pool_.effective_concurrency() + 1;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? claimants : std::min(claimants, static_cast<int>(hw));
}

void ProbeLanes::warm(const Shape& shape,
                      const std::function<void()>& probe) {
  if (members_.front() == nullptr) return;  // heap: nothing to warm
  {
    // Claimed under the lock, run outside it: a frame of the same shape
    // deciding meanwhile skips the warm rather than waits for it.
    util::MutexLock lock(mu_);
    if (std::find(warm_.begin(), warm_.end(), shape) != warm_.end()) return;
    warm_.push_back(shape);
  }
  for (const auto& pool : members_) {
    util::PoolScope scope(pool.get());
    probe();
  }
}

bool ProbeLanes::run(std::size_t n,
                     const std::function<void(std::size_t)>& fn) {
  HEBS_REQUIRE(n <= members_.size() + 1, "round wider than the member pools");
  // "Only when a server is waiting": a board nobody serves (a batch
  // whose workers are all deciding) answers without the lock.
  if (n < 2 || !idle_hint_.load(std::memory_order_relaxed)) return false;
  Round round;
  round.fn = &fn;
  round.n = n;
  {
    util::MutexLock lock(mu_);
    if (idle_ == 0 || round_ != nullptr) return false;
    round_ = &round;
  }
  events_.fetch_add(1, std::memory_order_release);
  cv_.notify_all();
  std::exception_ptr error;
  try {
    fn(0);
  } catch (...) {
    error = std::current_exception();
  }
  {
    util::MutexLock lock(mu_);
    // Members no server has claimed by now are skipped.  The round stays
    // posted until its claimed members return: the next round's members
    // draw from the same member pools, one probe at a time.
    round.next = round.n;
    while (round.running != 0) cv_.wait(mu_);
    round_ = nullptr;
    if (!error) error = round.error;
  }
  if (error) std::rethrow_exception(error);
  return true;
}

void ProbeLanes::open(std::size_t frames) {
  util::MutexLock lock(mu_);
  open_ = frames;
}

void ProbeLanes::finish() {
  {
    util::MutexLock lock(mu_);
    if (open_ == 0 || --open_ != 0) return;
  }
  events_.fetch_add(1, std::memory_order_release);
  cv_.notify_all();
}

void ProbeLanes::close() {
  {
    util::MutexLock lock(mu_);
    open_ = 0;
  }
  events_.fetch_add(1, std::memory_order_release);
  cv_.notify_all();
}

void ProbeLanes::serve(bool lent) {
  const auto leaving = [&] { return lent && pool_.yield_requested(); };
  mu_.lock();
  ++idle_;
  idle_hint_.store(true, std::memory_order_relaxed);
  auto idle_since = std::chrono::steady_clock::now();
  while (open_ != 0 && !leaving()) {
    if (Round* r = round_; r != nullptr && r->next < r->n) {
      const std::size_t k = r->next++;
      ++r->running;
      if (--idle_ == 0) idle_hint_.store(false, std::memory_order_relaxed);
      mu_.unlock();
      std::exception_ptr error;
      try {
        util::PoolScope member_scope(members_[k - 1].get());
        (*r->fn)(k);
      } catch (...) {
        error = std::current_exception();
      }
      mu_.lock();
      if (error && !r->error) r->error = error;
      if (--r->running == 0) cv_.notify_all();
      ++idle_;
      idle_hint_.store(true, std::memory_order_relaxed);
      idle_since = std::chrono::steady_clock::now();
      continue;
    }
    // Nothing to claim: poll the event count without the lock for a
    // while, then sleep until the next event (a lent server also wakes
    // now and then to see whether a parallel_for caller queued).  Any
    // event restarts the poll: the rounds of one search come a probe
    // apart, so a server woken by the first one stays hot for the rest.
    const std::uint64_t seen = events_.load(std::memory_order_acquire);
    if (std::chrono::steady_clock::now() - idle_since < kServeSpin) {
      mu_.unlock();
      while (events_.load(std::memory_order_acquire) == seen && !leaving() &&
             std::chrono::steady_clock::now() - idle_since < kServeSpin) {
        std::this_thread::yield();
      }
      mu_.lock();
    } else if (lent) {
      cv_.wait_for(mu_, kLentNap);
    } else {
      cv_.wait(mu_);
    }
    if (events_.load(std::memory_order_relaxed) != seen) {
      idle_since = std::chrono::steady_clock::now();
    }
  }
  if (--idle_ == 0) idle_hint_.store(false, std::memory_order_relaxed);
  mu_.unlock();
}

}  // namespace hebs::pipeline
