// Bounded-retry policy with exponential backoff + decorrelated jitter
// and a deadline budget (ISSUE 5: used by the persistency layer and the
// DES Storage stage).
//
// Backoff delays follow the "decorrelated jitter" recipe: each delay is
// uniform in [base, 3 * previous], capped at max — retries spread out
// instead of synchronizing into thundering herds, while the expected
// delay still grows geometrically. The jitter stream derives from
// common/rng, so a seeded policy replays the same delays.
//
// Delays are plain seconds, so the same Backoff drives both worlds:
// retry_sync() sleeps wall-clock threads (middleware persistency),
// while the DES Storage stage awaits engine delays in simulated time.
#pragma once

#include <chrono>
#include <thread>
#include <utility>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"

namespace dmr::fault {

struct RetryPolicy {
  /// Total attempts (first try included); 1 disables retries.
  int max_attempts = 1;
  /// First backoff delay, seconds.
  double base_delay = 0.0005;
  /// Cap on any single delay, seconds.
  double max_delay = 0.05;
  /// Total time budget across all attempts and delays, seconds;
  /// 0 = unbounded. A retry whose delay would overrun the budget is
  /// abandoned and the last error returned.
  double deadline = 0.0;

  bool enabled() const { return max_attempts > 1; }
};

/// Decorrelated-jitter delay generator. Deterministic per seed.
class Backoff {
 public:
  Backoff(const RetryPolicy& policy, std::uint64_t seed)
      : policy_(policy),
        rng_(Rng::for_entity(seed, 0xB0FFULL)),
        prev_(policy.base_delay) {}

  /// Next delay in seconds.
  double next() {
    const double hi = std::max(policy_.base_delay, prev_ * 3.0);
    double d = policy_.base_delay >= hi
                   ? policy_.base_delay
                   : rng_.uniform(policy_.base_delay, hi);
    if (d > policy_.max_delay) d = policy_.max_delay;
    prev_ = d;
    return d;
  }

 private:
  RetryPolicy policy_;
  Rng rng_;
  double prev_;
};

/// Runs `fn(attempt)` (attempt is 1-based) until it returns OK or the
/// policy is exhausted, sleeping the backoff delay between attempts.
/// `on_retry(attempt, delay_seconds, status)` fires before each sleep —
/// use it to count retries and emit trace events. Returns the last
/// status.
template <typename Fn, typename OnRetry>
Status retry_sync(const RetryPolicy& policy, std::uint64_t seed, Fn&& fn,
                  OnRetry&& on_retry) {
  Backoff backoff(policy, seed);
  const auto t0 = WallClock::now();
  Status last = Status::ok();
  for (int attempt = 1;; ++attempt) {
    last = fn(attempt);
    if (last.is_ok() || attempt >= policy.max_attempts) return last;
    const double delay = backoff.next();
    if (policy.deadline > 0.0 && seconds_since(t0) + delay > policy.deadline) {
      return last;
    }
    on_retry(attempt, delay, last);
    std::this_thread::sleep_for(std::chrono::duration<double>(delay));
  }
}

}  // namespace dmr::fault
