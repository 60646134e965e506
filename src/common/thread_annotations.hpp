// Clang thread-safety capability annotations (ISSUE 6 tentpole) and the
// annotated lock types the whole concurrency surface uses.
//
// The dynamic checkers (src/check/ protocol checker, src/mc/ sleep-set
// model checker + FastTrack race detector) verify the interleavings
// they execute; the capability analysis proves lock discipline on
// *every* path at compile time. The two are complementary: annotations
// cannot see through the lock-free structures (TraceRing's seqlock, the
// partitioned allocator), and the dynamic layer cannot enumerate every
// path through the mutex-protected ones.
//
// Macros expand to Clang's capability attributes under a
// thread-safety-capable Clang and to nothing elsewhere (GCC builds are
// unaffected). libstdc++'s std::mutex carries no capability
// annotations, so annotating members alone would teach the analysis
// nothing about lock/unlock; dmr::Mutex / dmr::MutexLock / dmr::CondVar
// below wrap the std primitives with the attributes Clang needs. The
// wrappers are zero-cost: every method is a single inlined forward.
//
// Conventions (enforced by tools/dmr_verify, rule mutex-annotation):
//  - mutex members are dmr::Mutex (never a bare std::mutex) and every
//    member they protect carries DMR_GUARDED_BY(that_mutex_);
//  - private helpers that expect the lock held are suffixed _locked and
//    annotated DMR_REQUIRES(mutex_);
//  - the rare intentional exceptions (seqlock, virtual-thread models)
//    live in tools/dmr_verify/allowlist.txt with a one-line justification.
#pragma once

#include <condition_variable>
#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define DMR_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef DMR_THREAD_ANNOTATION
#define DMR_THREAD_ANNOTATION(x)  // no-op: not a thread-safety-capable Clang
#endif

/// Type declares a capability ("mutex") the analysis can track.
#define DMR_CAPABILITY(x) DMR_THREAD_ANNOTATION(capability(x))
/// RAII type that acquires on construction and releases on destruction.
#define DMR_SCOPED_CAPABILITY DMR_THREAD_ANNOTATION(scoped_lockable)
/// Member may only be touched while holding `x`.
#define DMR_GUARDED_BY(x) DMR_THREAD_ANNOTATION(guarded_by(x))
/// Pointee (not the pointer) protected by `x`.
#define DMR_PT_GUARDED_BY(x) DMR_THREAD_ANNOTATION(pt_guarded_by(x))
/// Function requires the listed capabilities held on entry (and exit).
#define DMR_REQUIRES(...) \
  DMR_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Function acquires the capability (held on exit, not on entry).
#define DMR_ACQUIRE(...) \
  DMR_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// Function releases the capability (held on entry, not on exit).
#define DMR_RELEASE(...) \
  DMR_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// Function acquires the capability when returning `ret`.
#define DMR_TRY_ACQUIRE(ret, ...) \
  DMR_THREAD_ANNOTATION(try_acquire_capability(ret, __VA_ARGS__))
/// Caller must NOT hold the listed capabilities (deadlock guard).
#define DMR_EXCLUDES(...) DMR_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Documents lock-order: this mutex is acquired after the listed ones.
#define DMR_ACQUIRED_AFTER(...) \
  DMR_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define DMR_ACQUIRED_BEFORE(...) \
  DMR_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
/// Escape hatch for code the analysis cannot model; every use needs a
/// justification comment on the same or previous line.
#define DMR_NO_THREAD_SAFETY_ANALYSIS \
  DMR_THREAD_ANNOTATION(no_thread_safety_analysis)
/// Function returns a reference to the named capability.
#define DMR_RETURN_CAPABILITY(x) DMR_THREAD_ANNOTATION(lock_returned(x))

namespace dmr {

/// std::mutex with the capability attributes Clang's analysis needs.
/// Prefer MutexLock for scoped sections; lock()/unlock() exist for the
/// condition-variable protocol and annotated manual sections.
class DMR_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() DMR_ACQUIRE() { m_.lock(); }
  void unlock() DMR_RELEASE() { m_.unlock(); }
  bool try_lock() DMR_TRY_ACQUIRE(true) { return m_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex m_;
};

/// Scoped lock for dmr::Mutex — std::lock_guard with the
/// scoped-capability attribute (acquires in the constructor, releases
/// in the destructor; no unlock/relock surface).
class DMR_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& m) DMR_ACQUIRE(m) : m_(m) { m_.lock(); }
  ~MutexLock() DMR_RELEASE() { m_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& m_;
};

/// Condition variable for dmr::Mutex. wait() demands the caller hold
/// the mutex (checked at compile time under Clang); internally it
/// re-enters the wrapped std::mutex through a std::unique_lock that
/// adopts and releases without destroying ownership.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified; `m` must be held (it is released while
  /// waiting and re-held on return, like std::condition_variable).
  /// Deliberately no predicate overload: callers loop
  /// `while (!cond) cv_.wait(mutex_);` so the condition's guarded reads
  /// stay inside the caller, where the analysis can see the lock —
  /// a predicate lambda would be analyzed as a separate function.
  void wait(Mutex& m) DMR_REQUIRES(m) {
    std::unique_lock<std::mutex> lk(m.m_, std::adopt_lock);
    cv_.wait(lk);
    lk.release();  // ownership stays with the caller's scoped lock
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace dmr
