// Discrete-event simulation engine.
//
// The engine owns a time-ordered event queue. Events resume C++20
// coroutines (simulated processes, see process.hpp) or invoke plain
// callbacks (used by resource models such as processor-sharing links).
//
// Determinism: ties in time are broken by insertion sequence number, so a
// simulation with a fixed seed replays the exact same timeline. Every
// scheduled event takes the next sequence number, and events dispatch in
// ascending (t, seq) order.
//
// The queue allocates nothing per event. An event is a 24-byte entry
// holding its (t, seq) key inline and a tagged payload: a coroutine frame
// address or the index of a pooled callback slot. Entries live in one of
// three tiers:
//   - a FIFO of events scheduled at exactly now() (spawns, wake-ups,
//     zero delays), which arrive already in (t, seq) order;
//   - a small near heap holding every other key below a horizon;
//   - an unsorted far vector holding the keys at or past the horizon.
// The near heap stays a few hundred entries deep, so it lives in cache;
// when it drains, the earliest fraction of the far tier moves in.
#pragma once

#include <bit>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <functional>
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

/// A (primary, secondary) pair as one unsigned integer, so that ordering
/// two pairs is one branch-free compare.
using OrderKey = unsigned __int128;

inline OrderKey order_key(std::uint64_t hi, std::uint64_t lo) {
  return (OrderKey{hi} << 64) | lo;
}

/// Maps a finite double onto an unsigned integer with the same order
/// (IEEE-754 bits, sign folded). -0.0 maps like +0.0, since they compare
/// equal.
inline std::uint64_t order_bits(double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v + 0.0);
  const auto sign = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(bits) >> 63);
  return bits ^ (sign | (std::uint64_t{1} << 63));
}

/// Inverse of order_bits.
inline double from_order_bits(std::uint64_t u) {
  return std::bit_cast<double>(u ^ (((u >> 63) - 1) | (std::uint64_t{1} << 63)));
}

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

  /// Cancels a callback previously scheduled. An id whose callback
  /// already fired or was cancelled is a no-op, even after its slot has
  /// been reused by a later callback.
  void cancel(std::uint64_t id);

  /// Runs until the event queue drains. Returns the final time.
  Time run();

  /// Runs until simulated time would exceed `t_end`; events at exactly
  /// t_end are processed. Returns the time reached, which is never
  /// before now(): a `t_end` in the past changes nothing.
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
  /// A pending event. `payload` is a coroutine frame address (low bit
  /// 0) or a callback: (generation << 32) | (slot << 1) | 1.
  struct Entry {
    std::uint64_t t;    // order_bits(time)
    std::uint64_t seq;
    std::uint64_t payload;

    OrderKey key() const { return order_key(t, seq); }
    bool operator<(const Entry& o) const { return key() < o.key(); }
  };

  /// The three-tier (t, seq) queue described at the top of this file.
  /// Entries in the FIFO all carry the current instant; every heap key
  /// is below `horizon_` and every far key at or above it.
  class Queue {
   public:
    void push(const Entry& e, bool at_now);
    /// The earliest entry (a cancelled callback included), or nullptr
    /// when the queue is empty.
    const Entry* front();
    /// Removes the entry front() returned.
    void pop_front();

   private:
    void fifo_push(const Entry& e);
    /// Moves `e` from the hole at `i` up to its place in the heap.
    void sift_up(std::size_t i, Entry e);
    /// Restores the heap order after entries were appended at `first`.
    void sift_up_from(std::size_t first);
    void heap_pop();
    void spill();
    void refill();

    std::vector<Entry> fifo_;  // ring buffer, power-of-two capacity
    std::size_t fifo_head_ = 0;
    std::size_t fifo_size_ = 0;
    std::vector<Entry> heap_;  // 4-ary min-heap
    std::vector<Entry> far_;
    OrderKey horizon_ = ~OrderKey{0};
    bool front_in_fifo_ = false;
  };

  /// A pooled callback. `gen` is odd while the slot holds a scheduled
  /// callback and even while it is free; both firing and cancelling
  /// bump it, so a stale id or queue entry no longer matches.
  struct CallbackSlot {
    std::function<void()> fn;
    std::uint32_t gen = 0;
  };

  void push(Time t, std::uint64_t payload);
  /// The earliest live event (cancelled callbacks are dropped on the
  /// way), or nullptr when none is left.
  const Entry* next_live();
  void dispatch(const Entry& ev);

  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  Queue queue_;
  std::vector<CallbackSlot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::coroutine_handle<>> owned_processes_;

  friend class Process;
};

}  // namespace dmr::des
