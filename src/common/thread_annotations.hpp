// Clang thread-safety capability annotations and the annotated lock
// types the whole concurrency surface uses.
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
// nothing about lock/unlock; dmr::Mutex / dmr::MutexLock below wrap the
// std primitive with the attributes Clang needs (every method is a
// single inlined forward), and dmr::SpinMutex / dmr::SpinMutexLock are
// the spin-then-park lock of the write path, annotated the same way.
//
// Conventions (enforced by tools/dmr_verify, rule mutex-annotation):
//  - mutex members are dmr::Mutex or dmr::SpinMutex (never a bare
//    std::mutex) and every member they protect carries
//    DMR_GUARDED_BY(that_mutex_);
//  - private helpers that expect the lock held are suffixed _locked and
//    annotated DMR_REQUIRES(mutex_);
//  - the rare intentional exceptions (seqlock, virtual-thread models)
//    live in tools/dmr_verify/allowlist.txt with a one-line justification.
#pragma once

#include <atomic>
#include <cstdint>
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
/// Prefer MutexLock for scoped sections; lock()/unlock() exist for
/// annotated manual sections.
class DMR_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() DMR_ACQUIRE() { m_.lock(); }
  void unlock() DMR_RELEASE() { m_.unlock(); }
  bool try_lock() DMR_TRY_ACQUIRE(true) { return m_.try_lock(); }

 private:
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

/// Spin-then-park lock for the short critical sections every write
/// takes (the event queue's and the first-fit allocator's; DESIGN.md
/// §14.1). A held glibc mutex parks its waiter on a futex at once, so a
/// section of a few dozen nanoseconds can cost the waiter two context
/// switches. A SpinMutex waiter first spins up to kSpinLimit rounds of
/// a CPU pause, then parks on the lock word (std::atomic::wait). Only
/// for sections that neither block nor allocate.
///
/// The word is 0 (free), 1 (held) or 2 (held, and a waiter may be
/// parked); unlock() calls notify_one only in state 2.
class DMR_CAPABILITY("mutex") SpinMutex {
 public:
  SpinMutex() = default;
  SpinMutex(const SpinMutex&) = delete;
  SpinMutex& operator=(const SpinMutex&) = delete;

  void lock() DMR_ACQUIRE() {
    if (!try_lock()) lock_contended();
  }
  bool try_lock() DMR_TRY_ACQUIRE(true) {
    std::uint32_t expected = kFree;
    return word_.compare_exchange_strong(expected, kHeld,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed);
  }
  void unlock() DMR_RELEASE() {
    if (word_.exchange(kFree, std::memory_order_release) == kParked) {
      word_.notify_one();
    }
  }

 private:
  static constexpr std::uint32_t kFree = 0;
  static constexpr std::uint32_t kHeld = 1;
  static constexpr std::uint32_t kParked = 2;
  /// Pause rounds before parking: a few microseconds, longer than the
  /// sections this lock guards and far shorter than a futex round trip.
  static constexpr int kSpinLimit = 128;

  static void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    __asm__ __volatile__("yield");
#endif
  }

  void lock_contended() {
    for (int i = 0; i < kSpinLimit; ++i) {
      cpu_pause();
      std::uint32_t w = word_.load(std::memory_order_relaxed);
      if (w == kFree &&
          word_.compare_exchange_weak(w, kHeld, std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
        return;
      }
    }
    // Park. Whoever holds the lock sees kParked at unlock and wakes one
    // waiter, which takes the lock in kParked: it cannot tell whether
    // others still sleep, so its own unlock wakes once more to be safe.
    while (word_.exchange(kParked, std::memory_order_acquire) != kFree) {
      word_.wait(kParked, std::memory_order_relaxed);
    }
  }

  std::atomic<std::uint32_t> word_{kFree};
};

/// Scoped lock for dmr::SpinMutex (the MutexLock of the write path).
class DMR_SCOPED_CAPABILITY SpinMutexLock {
 public:
  explicit SpinMutexLock(SpinMutex& m) DMR_ACQUIRE(m) : m_(m) { m_.lock(); }
  ~SpinMutexLock() DMR_RELEASE() { m_.unlock(); }

  SpinMutexLock(const SpinMutexLock&) = delete;
  SpinMutexLock& operator=(const SpinMutexLock&) = delete;

 private:
  SpinMutex& m_;
};

}  // namespace dmr
