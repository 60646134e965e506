// Unbounded message channel between simulated processes.
//
// send() never suspends: if a receiver is waiting it is scheduled to
// resume at the current simulated time with the value; otherwise the
// value is queued. recv() suspends until a value is available.
#pragma once

#include <cassert>
#include <coroutine>
#include <deque>
#include <optional>
#include <utility>

#include "des/engine.hpp"

namespace dmr::des {

template <typename T>
class Channel {
 public:
  explicit Channel(Engine& eng) : eng_(&eng) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  class RecvAwaiter {
   public:
    explicit RecvAwaiter(Channel* ch) : ch_(ch) {}

    bool await_ready() {
      if (!ch_->items_.empty()) {
        value_ = std::move(ch_->items_.front());
        ch_->items_.pop_front();
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      ch_->waiters_.push_back({h, this});
    }
    T await_resume() {
      assert(value_.has_value());
      return std::move(*value_);
    }

   private:
    friend class Channel;
    Channel* ch_;
    std::optional<T> value_;
  };

  /// Awaitable receive.
  RecvAwaiter recv() { return RecvAwaiter(this); }

  /// Non-suspending send.
  void send(T value) {
    if (!waiters_.empty()) {
      Waiter w = waiters_.front();
      waiters_.pop_front();
      w.awaiter->value_ = std::move(value);
      eng_->schedule_resume(w.handle, eng_->now());
    } else {
      items_.push_back(std::move(value));
    }
  }

  /// Number of queued (unconsumed) values.
  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  /// Number of processes blocked in recv().
  std::size_t waiting_receivers() const {
    return waiters_.size();
  }

 private:
  struct Waiter {
    std::coroutine_handle<> handle;
    RecvAwaiter* awaiter;
  };

  Engine* eng_;
  std::deque<T> items_;
  std::deque<Waiter> waiters_;
};

}  // namespace dmr::des
