// Synchronization primitives for simulated processes: Latch, Barrier.
//
// These model the synchronizing behaviours the paper blames for jitter
// amplification (collective I/O barriers, §II-B): every waiter is
// released at the simulated time the last participant arrives.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <vector>

#include "des/engine.hpp"

namespace dmr::des {

/// One-shot countdown latch. wait() suspends until the count reaches 0.
class Latch {
 public:
  Latch(Engine& eng, std::size_t count) : eng_(&eng), count_(count) {}

  Latch(const Latch&) = delete;
  Latch& operator=(const Latch&) = delete;

  void count_down(std::size_t n = 1) {
    assert(count_ >= n);
    count_ -= n;
    if (count_ == 0) {
      for (auto h : waiters_) eng_->schedule_resume(h, eng_->now());
      waiters_.clear();
    }
  }

  auto wait() {
    struct Awaiter {
      Latch* latch;
      bool await_ready() const { return latch->count_ == 0; }
      void await_suspend(std::coroutine_handle<> h) {
        latch->waiters_.push_back(h);
      }
      void await_resume() const {}
    };
    return Awaiter{this};
  }

  std::size_t pending() const { return count_; }

 private:
  Engine* eng_;
  std::size_t count_;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// Counting semaphore: acquire() suspends while no permits are
/// available; release() hands a permit to the oldest waiter (FIFO).
/// Used e.g. for token-based coordination of dedicated-core writes.
class Semaphore {
 public:
  Semaphore(Engine& eng, int permits) : eng_(&eng), permits_(permits) {}

  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  auto acquire() {
    struct Awaiter {
      Semaphore* sem;
      bool await_ready() {
        if (sem->permits_ > 0) {
          --sem->permits_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        sem->waiters_.push_back(h);
      }
      void await_resume() const {}
    };
    return Awaiter{this};
  }

  /// Releases one permit; a waiter (if any) resumes at the current time
  /// already holding it.
  void release() {
    if (!waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.erase(waiters_.begin());
      eng_->schedule_resume(h, eng_->now());
    } else {
      ++permits_;
    }
  }

  int available() const { return permits_; }
  std::size_t waiting() const { return waiters_.size(); }

 private:
  Engine* eng_;
  int permits_;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// Cyclic barrier for a fixed group of processes. arrive_and_wait()
/// suspends until all `parties` processes of the current generation have
/// arrived; the barrier then resets for the next generation.
class Barrier {
 public:
  Barrier(Engine& eng, std::size_t parties)
      : eng_(&eng), parties_(parties), arrived_(0) {
    assert(parties > 0);
  }

  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  auto arrive_and_wait() {
    struct Awaiter {
      Barrier* b;
      bool await_ready() {
        if (b->arrived_ + 1 == b->parties_) {
          // Last arrival: release everyone at the current time.
          b->arrived_ = 0;
          for (auto h : b->waiters_) {
            b->eng_->schedule_resume(h, b->eng_->now());
          }
          b->waiters_.clear();
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        ++b->arrived_;
        b->waiters_.push_back(h);
      }
      void await_resume() const {}
    };
    return Awaiter{this};
  }

  std::size_t parties() const { return parties_; }

 private:
  Engine* eng_;
  std::size_t parties_;
  std::size_t arrived_;
  std::vector<std::coroutine_handle<>> waiters_;
};

}  // namespace dmr::des
