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

}  // namespace

int ThreadPool::effective_concurrency() const noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  // 0 = unknown hardware: trust the requested pool size.
  if (hw == 0) return thread_count_;
  return std::min(thread_count_, static_cast<int>(hw));
}

ThreadPool::ThreadPool(int threads)
    : thread_count_(resolve_thread_count(threads)) {
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
  published_.fetch_add(1, std::memory_order_release);  // ends any spin
  cv_work_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::worker_loop(int worker) {
  std::uint64_t seen_generation = 0;
  bool spin = false;
  for (;;) {
    if (spin) {
      // After an opportunistic round, stay awake for the next one: the
      // rounds of one speculative search come a probe apart, and waking
      // a sleeping worker can cost a large share of a probe.
      const auto until = std::chrono::steady_clock::now() + kRoundSpin;
      while (published_.load(std::memory_order_acquire) == seen_generation &&
             std::chrono::steady_clock::now() < until) {
        std::this_thread::yield();
      }
    }
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
      // Only workers that may claim an index poll for the next round.
      spin = task_opportunistic_ && worker < limit;
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
      if (--active_ == 0) cv_done_.notify_all();
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
      while (busy_) cv_done_.wait(mu_);
      --queued_;
    }
    publish_locked(n, fn, /*opportunistic=*/false);
    error = join_locked();
  }
  // Rethrow outside the lock: a throwing unwind must not hold mu_.
  if (error) std::rethrow_exception(error);
}

bool ThreadPool::try_parallel_for(
    std::size_t n, const std::function<void(std::size_t, int)>& fn) {
  if (n == 0) return true;
  if (threads_.empty() || t_running_pool == this) return false;
  {
    util::MutexLock lock(mu_);
    if (busy_ || queued_ != 0) return false;
    obs::add(obs::Counter::kParallelForCalls);
    obs::add(obs::Counter::kParallelForItems, n);
    publish_locked(n, fn, /*opportunistic=*/true);
  }
  // Index 0 is the caller's, run outside the lock like every worker's
  // share; busy_ keeps other callers out meanwhile.  Indices no worker
  // has claimed once it is done are skipped: opportunistic work never
  // adds to the caller's own.
  std::exception_ptr error;
  {
    RunningPoolScope running(this);
    try {
      fn(0, thread_count_);
    } catch (...) {
      error = std::current_exception();
    }
  }
  cursor_.fetch_add(n, std::memory_order_relaxed);
  {
    util::MutexLock lock(mu_);
    std::exception_ptr worker_error = join_locked();
    if (!error) error = worker_error;
  }
  if (error) std::rethrow_exception(error);
  return true;
}

void ThreadPool::publish_locked(
    std::size_t n, const std::function<void(std::size_t, int)>& fn,
    bool opportunistic) {
  busy_ = true;
  task_ = &fn;
  task_n_ = n;
  task_limit_ = effective_concurrency();
  task_opportunistic_ = opportunistic;
  // An opportunistic round reserves index 0 for its caller.
  cursor_.store(opportunistic ? 1 : 0, std::memory_order_relaxed);
  failed_.store(false, std::memory_order_relaxed);
  active_ = static_cast<int>(threads_.size());
  first_error_ = nullptr;
  ++generation_;
  published_.store(generation_, std::memory_order_release);
  cv_work_.notify_all();
}

std::exception_ptr ThreadPool::join_locked() {
  while (active_ != 0) cv_done_.wait(mu_);
  task_ = nullptr;
  std::exception_ptr error = first_error_;
  first_error_ = nullptr;
  busy_ = false;
  // Wake the next queued caller (cv_done_ doubles as the busy_
  // handoff; predicates disambiguate).
  cv_done_.notify_all();
  return error;
}

ProbeLanes::ProbeLanes(ThreadPool& pool, bool pools,
                       util::PoolOptions pool_opts)
    : pool_(pool),
      pools_(static_cast<std::size_t>(pool.thread_count())),
      body_([this](std::size_t k, int) {
        // Member 0 runs on the caller, which has its scope already.
        util::PoolScope scope(k == 0 ? nullptr : pools_[k - 1].get());
        (*round_)(k);
      }) {
  if (!pools || pool.thread_count() == 1) return;
  for (auto& p : pools_) p = std::make_unique<util::BufferPool>(pool_opts);
}

bool ProbeLanes::available() const noexcept {
  return pool_.effective_concurrency() >= 2 && !util::fault::any_armed();
}

int ProbeLanes::width() const noexcept {
  const int claimants = pool_.effective_concurrency() + 1;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? claimants : std::min(claimants, static_cast<int>(hw));
}

bool ProbeLanes::run(std::size_t n,
                     const std::function<void(std::size_t)>& fn) {
  HEBS_REQUIRE(n <= pools_.size() + 1, "round wider than the lane pools");
  round_ = &fn;
  const bool ran = pool_.try_parallel_for(n, body_);
  round_ = nullptr;
  return ran;
}

}  // namespace hebs::pipeline
