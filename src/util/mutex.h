// Annotated mutex primitives for the thread-safety analysis.
//
// Clang's -Wthread-safety can only check locking discipline against
// types that declare themselves capabilities; std::mutex does not, so
// GUARDED_BY(std_mutex_member) is rejected by the analysis outright.
// This header provides the thinnest possible annotated wrappers:
//
//   * Mutex       — std::mutex with HEBS_CAPABILITY + annotated
//                   lock/unlock/try_lock (zero state added);
//   * MutexLock   — scoped lock_guard equivalent (HEBS_SCOPED_CAPABILITY
//                   so the analysis tracks its RAII acquire/release),
//                   including std::adopt_lock after a try_lock;
//   * CondVar     — std::condition_variable adapter whose wait() takes
//                   the Mutex itself and is annotated HEBS_REQUIRES(mu),
//                   so a wait outside the lock is a compile error under
//                   Clang (and UB caught by TSan elsewhere).
//
// CondVar::wait deliberately has no predicate overload: the predicate
// lambda would be analyzed as a separate unannotated function and every
// guarded read inside it would warn.  Call sites spell the condition as
// a while loop in the annotated function body instead, where the
// analysis can see the held lock:
//
//   MutexLock lock(mu_);
//   while (!ready_) cv_.wait(mu_);
//
// Everything forwards straight to the std primitives — the wrappers add
// annotations, not behavior, and compile to identical code.
#pragma once

#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace hebs::util {

/// std::mutex as a Clang capability.
class HEBS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() HEBS_ACQUIRE() { mu_.lock(); }
  void unlock() HEBS_RELEASE() { mu_.unlock(); }
  bool try_lock() HEBS_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// Scoped lock (std::lock_guard shape) the analysis can follow.
class HEBS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) HEBS_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  /// Takes custody of a lock the caller already holds (after a
  /// successful try_lock), releasing it on scope exit.
  MutexLock(Mutex& mu, std::adopt_lock_t) HEBS_REQUIRES(mu) : mu_(mu) {}
  ~MutexLock() HEBS_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to the annotated Mutex.  wait() adopts the
/// already-held Mutex into a std::unique_lock for the underlying
/// std::condition_variable and releases custody again on return, so the
/// caller's MutexLock stays the one true owner; the annotation makes
/// holding the lock a compile-time requirement under Clang.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(Mutex& mu) HEBS_REQUIRES(mu) {
    std::unique_lock<std::mutex> adopted(mu.mu_, std::adopt_lock);
    cv_.wait(adopted);
    adopted.release();  // caller keeps ownership; do not unlock here
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace hebs::util
