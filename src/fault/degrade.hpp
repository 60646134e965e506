// Degraded-mode write policy for the middleware clients (paper §III:
// when the shared buffer is full, "the client can then decide whether
// it should block until some memory is freed, or write synchronously").
//
// The DegradeController is a small hysteresis state machine shared by
// every client of a DamarisNode:
//
//             pressure >= trip            pressure >= trip
//   kNormal ------------------> kSync ------------------> kDrop
//      ^                          |  ^                      |
//      +--------------------------+  +----------------------+
//             clear >= clear_threshold (one level at a time)
//
//   kNormal  writes block (with timeout) for shared-memory space;
//   kSync    writes skip the blocking wait: one allocation probe, and
//            on pressure the client writes its block synchronously,
//            bypassing the dedicated core (the paper's "write
//            synchronously" option);
//   kDrop    writes are dropped with accounting (opt-in last resort).
//
// `pressure` events are allocation failures / forced exhaustion
// windows; `clear` events are writes that published normally. A dead
// dedicated core (crash fault) forces at least kSync until it restarts.
// Every transition is emitted as a trace/ instant (Category::kFault) so
// Chrome timelines show the fault window.
//
// Thread-safety: mode() is a lock-free read; transitions take an
// internal mutex (they are rare by construction).
#pragma once

#include <atomic>
#include <cstdint>

#include "common/thread_annotations.hpp"
#include "fault/retry.hpp"

namespace dmr::fault {

enum class DegradeMode : int { kNormal = 0, kSync = 1, kDrop = 2 };

const char* degrade_mode_name(DegradeMode mode);

struct DegradePolicy {
  /// Blocking-allocation timeout in kNormal, milliseconds: a write
  /// waits (yielding) this long for the dedicated core to free space.
  int block_timeout_ms = 5000;
  /// Allow the synchronous-passthrough fallback.
  bool allow_sync = false;
  /// Allow dropping writes (with accounting) as the last resort.
  bool allow_drop = false;
  /// Consecutive pressure events before escalating one level.
  int trip_threshold = 2;
  /// Consecutive clean writes before recovering one level.
  int clear_threshold = 3;
};

/// Everything the config's <resilience> section carries.
struct ResilienceConfig {
  RetryPolicy retry;      // persistency-layer retries
  DegradePolicy degrade;  // client-side degraded-mode policy
};

struct DegradeStats {
  std::uint64_t pressure_events = 0;
  std::uint64_t escalations = 0;  // transitions away from kNormal
  std::uint64_t recoveries = 0;   // transitions toward kNormal
};

class DegradeController {
 public:
  explicit DegradeController(DegradePolicy policy, int node_id = 0);

  DegradeMode mode() const {
    return static_cast<DegradeMode>(mode_.load(std::memory_order_relaxed));
  }
  bool server_down() const {
    return servers_down_.load(std::memory_order_relaxed) > 0;
  }
  const DegradePolicy& policy() const { return policy_; }

  /// Records an allocation-pressure event; escalates after
  /// trip_threshold consecutive ones. Returns the mode the *caller*
  /// should apply to this write (at least kSync while a server is
  /// down).
  DegradeMode on_pressure();

  /// Records a write that published normally; recovers one level after
  /// clear_threshold consecutive ones.
  void on_clear();

  /// A dedicated core died (crash fault) / came back. While any server
  /// is down, mode() reports at least kSync.
  void on_server_down();
  void on_server_up();

  DegradeStats stats() const;

 private:
  void set_mode_locked(DegradeMode to) DMR_REQUIRES(mutex_);

  DegradePolicy policy_;
  int node_id_;
  /// Lock-free mirrors of the FSM state for the mode()/server_down()
  /// fast paths; written only under mutex_ (see on_pressure / on_clear).
  std::atomic<int> mode_{0};
  std::atomic<int> servers_down_{0};
  mutable Mutex mutex_;
  /// Atomic so on_clear()'s lock-free fast path may read it; mutated
  /// only under mutex_.
  std::atomic<int> pressure_streak_{0};
  int clear_streak_ DMR_GUARDED_BY(mutex_) = 0;
  DegradeStats stats_ DMR_GUARDED_BY(mutex_);
};

}  // namespace dmr::fault
