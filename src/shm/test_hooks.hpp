// Mutation hooks for concurrency testing.
//
// The model checker and race detector in src/mc/ prove the absence of
// protocol bugs over all interleavings — but a verifier that has never
// been seen to catch a real bug proves nothing about itself. These
// hooks let tests *seed* the classic shm-handoff bugs into the
// production code paths and assert the analysis engines flag each one
// (tests/mc_test.cpp):
//
//  - double_deallocate:   SharedBuffer::deallocate frees the block twice,
//                         corrupting the free list / partition counters;
//  - skip_notify_on_close: EventQueue::close forgets to wake blocked
//                         poppers — the classic lost wakeup;
//  - write_after_publish: the client mutates a block after handing it to
//                         the server (consulted by mc scenario programs
//                         and core::Client instrumentation points);
//  - park_without_recheck: a popper that announced it is going to sleep
//                         parks without re-checking the queue, so a push
//                         that read the announcement word just before
//                         wakes nobody — a lost wakeup on push.
//
// The flags default to off, so production behavior is untouched. Not
// thread-safe: set them before
// the threads (or the model checker) start, restore after — ScopedTestHooks
// does both.
#pragma once

namespace dmr::shm {

struct TestHooks {
  bool double_deallocate = false;
  bool skip_notify_on_close = false;
  bool write_after_publish = false;
  bool park_without_recheck = false;
};

/// The process-wide mutation flags (all off by default).
TestHooks& test_hooks();

/// RAII: installs `hooks` on construction, restores the previous flags
/// on destruction.
class ScopedTestHooks {
 public:
  explicit ScopedTestHooks(const TestHooks& hooks) : saved_(test_hooks()) {
    test_hooks() = hooks;
  }
  ~ScopedTestHooks() { test_hooks() = saved_; }

  ScopedTestHooks(const ScopedTestHooks&) = delete;
  ScopedTestHooks& operator=(const ScopedTestHooks&) = delete;

 private:
  TestHooks saved_;
};

}  // namespace dmr::shm
