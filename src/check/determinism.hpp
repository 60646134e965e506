// Determinism verifier for the discrete-event engine.
//
// The paper's evaluation (and every figure this repo regenerates) rests
// on the claim that a simulation with a fixed seed replays the exact
// same timeline — ties in simulated time are broken by insertion
// sequence number (des/engine.hpp). A nondeterminism regression (an
// unordered container leaking iteration order into scheduling, a
// wall-clock read, uninitialized memory feeding an RNG) silently turns
// benchmark numbers into noise.
//
// TimelineHasher installs the engine's per-thread dispatch hook and
// folds every dispatched event's
// (time, sequence, kind) tuple into a 64-bit FNV-1a digest — a compact
// fingerprint of the entire event timeline. verify_determinism() runs a
// scenario twice and compares fingerprints:
//
//   auto rep = check::verify_determinism([] {
//     run_strategy(experiments::kraken_config(kDamaris, 576, 5, 1));
//   });
//   assert(rep.deterministic && rep.events_a > 0);
//
// Thread-safety: the dispatch hook is thread-local — a TimelineHasher
// observes only engines running on its own thread, so concurrent
// verifications on different threads do not interfere. Non-reentrant
// per thread (nesting restores the outer hasher on destruction).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace dmr::check {

/// RAII: hashes every event dispatched by any des::Engine running on
/// *this thread* between construction and destruction. Non-reentrant
/// (one active hasher per thread; nesting restores the outer one on
/// destruction).
class TimelineHasher {
 public:
  TimelineHasher();
  ~TimelineHasher();

  TimelineHasher(const TimelineHasher&) = delete;
  TimelineHasher& operator=(const TimelineHasher&) = delete;

  /// FNV-1a digest of all (time, seq, kind) tuples seen so far.
  std::uint64_t digest() const { return digest_; }
  /// Number of events folded in.
  std::uint64_t events() const { return events_; }

 private:
  static void hook(void* ctx, double t, std::uint64_t seq, bool is_callback);

  std::uint64_t digest_;
  std::uint64_t events_ = 0;
};

struct DeterminismReport {
  std::uint64_t digest_a = 0;
  std::uint64_t digest_b = 0;
  std::uint64_t events_a = 0;
  std::uint64_t events_b = 0;
  bool deterministic = false;

  std::string to_string() const;
};

/// Runs `run_once` twice on the calling thread, hashing each run's
/// event timeline, and reports whether the two fingerprints match. The
/// callable must construct its own engine(s) and seed its own RNGs —
/// i.e. be a self-contained scenario.
DeterminismReport verify_determinism(const std::function<void()>& run_once);

}  // namespace dmr::check
