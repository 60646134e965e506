// Discrete-event simulation engine.
//
// The engine owns a time-ordered event queue. Events resume C++20
// coroutines (simulated processes, see process.hpp) or invoke plain
// callbacks (used by resource models such as processor-sharing links).
//
// Determinism: ties in time are broken by insertion sequence number, so a
// simulation with a fixed seed replays the exact same timeline.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"

namespace dmr::des {

using Time = ::dmr::SimTime;

class Process;

/// Timeline instrumentation (DMR_CHECK builds only): a hook invoked for
/// every dispatched event with its (time, sequence number, kind) tuple —
/// exactly the data that defines the deterministic replay order. The
/// determinism verifier (check/determinism.hpp) installs one to hash the
/// timeline of a run. The hook is per-thread so concurrently running
/// engines on different threads do not interfere; pass nullptr to
/// uninstall. In non-DMR_CHECK builds installation is a no-op and the
/// dispatch path carries zero instrumentation.
using DispatchHook = void (*)(void* ctx, Time t, std::uint64_t seq,
                              bool is_callback);
void set_thread_dispatch_hook(DispatchHook hook, void* ctx);

class Engine {
 public:
  Engine() = default;
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time in seconds.
  Time now() const { return now_; }

  /// Number of events processed so far (for micro-benchmarks and tests).
  std::uint64_t events_processed() const { return events_processed_; }

  /// Takes ownership of a process coroutine and schedules its first step
  /// at the current simulated time.
  void spawn(Process p);

  /// Schedules `h` to be resumed at absolute time `t` (>= now).
  void schedule_resume(std::coroutine_handle<> h, Time t);

  /// Schedules `fn` to run at absolute time `t` (>= now). Returns an id
  /// that can be passed to `cancel`.
  std::uint64_t schedule_callback(Time t, std::function<void()> fn);

  /// Cancels a callback previously scheduled (no-op if already fired).
  void cancel(std::uint64_t id);

  /// Runs until the event queue drains. Returns the final time.
  Time run();

  /// Runs until simulated time would exceed `t_end`; events at exactly
  /// t_end are processed. Returns the time reached.
  Time run_until(Time t_end);

  /// Awaitable that suspends the calling process for `dt` seconds.
  auto delay(Time dt) {
    struct Awaiter {
      Engine* eng;
      Time wake;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        eng->schedule_resume(h, wake);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, now_ + (dt > 0 ? dt : 0)};
  }

  /// Awaitable that suspends the calling process until absolute time `t`
  /// (resumes immediately-at-now if `t` is in the past).
  auto sleep_until(Time t) {
    struct Awaiter {
      Engine* eng;
      Time wake;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        eng->schedule_resume(h, wake);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, t < now_ ? now_ : t};
  }

 private:
  struct Event {
    Time t;
    std::uint64_t seq;
    std::coroutine_handle<> handle;       // either a coroutine ...
    std::function<void()> callback;       // ... or a callback
    bool cancelled = false;
  };
  struct EventCompare {
    // std::priority_queue is a max-heap; invert for earliest-first, with
    // sequence number as the deterministic tie-breaker.
    bool operator()(const Event* a, const Event* b) const {
      if (a->t != b->t) return a->t > b->t;
      return a->seq > b->seq;
    }
  };

  void dispatch(Event* ev);
  Event* pop_next();

  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::priority_queue<Event*, std::vector<Event*>, EventCompare> queue_;
  std::unordered_map<std::uint64_t, Event*> active_callbacks_;
  std::vector<std::coroutine_handle<>> owned_processes_;

  friend class Process;
};

}  // namespace dmr::des
