// Tracer — the process-wide collection point of the tracing layer.
//
// A Tracer owns a set of lock-free TraceRings, sharded by entity id, so
// each simulated rank / dedicated core / FS server effectively gets its
// own timeline buffer (entities hashing to the same shard share one
// ring; events carry their entity, so the exported per-entity lanes are
// exact regardless of sharding). Recording costs one relaxed atomic
// load (the category mask), one fetch_add and a handful of relaxed
// stores — no locks, no allocation after the first event in a shard.
//
// Gating is at run time (DESIGN.md §10): hooks all over the codebase
// call trace::current() and fire only when a Tracer is installed *and*
// the event's category is enabled on it. With no tracer installed a hook
// costs one atomic load and a predictable branch.
//
// Thread-safety: record_*() and enabled() may be called from any
// thread. install()/ScopedTracer swap a process-wide atomic pointer —
// install from one thread at a time (the benches and tests run one
// traced workload per process) and only drain after the traced work
// quiesced. Tracing never feeds back into the traced system: a run
// with a tracer attached produces bit-identical results to a run
// without (pinned by trace_test).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "common/clock.hpp"
#include "trace/event.hpp"
#include "trace/ring.hpp"

namespace dmr::trace {

struct TracerOptions {
  /// Bitmask of Category values enabled at construction.
  std::uint32_t categories = kAllCategories;
};

class Tracer {
 public:
  explicit Tracer(TracerOptions opts = {});
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled(Category c) const {
    return (categories_.load(std::memory_order_relaxed) & category_bit(c)) !=
           0;
  }
  void set_enabled(Category c, bool on);

  void record(const TraceEvent& ev);

  void record_span(EntityId entity, Category cat, const char* name, double t,
                   double dur, std::uint64_t bytes = 0, std::int32_t phase = -1);
  void record_instant(EntityId entity, Category cat, const char* name,
                      double t, std::uint64_t bytes = 0,
                      std::int32_t phase = -1);
  void record_counter(EntityId entity, Category cat, const char* name,
                      double t, std::uint64_t value);

  /// Wall-clock seconds since this tracer was constructed (steady).
  /// Timestamp domain for events recorded outside a simulation.
  double wall_now() const;

  /// Total events recorded / lost to ring wrapping, over all shards.
  std::uint64_t recorded() const;
  std::uint64_t overwritten() const;

  /// Merged snapshot of all shards, sorted by (t, entity, ring order) —
  /// deterministic for a deterministic workload. Call after the traced
  /// workload quiesced.
  std::vector<TraceEvent> drain() const;

 private:
  TraceRing& shard(EntityId entity);

  /// Entity shards (a power of two). A shard allocates its ring on its
  /// first event, so idle entities cost nothing.
  static constexpr std::size_t kShards = 256;
  /// Events per shard ring (a power of two).
  static constexpr std::size_t kRingCapacity = 4096;

  std::atomic<std::uint32_t> categories_;
  std::array<std::atomic<TraceRing*>, kShards> shards_{};
  WallClock::time_point t0_;
};

/// Installs `t` as the process-wide tracer and returns the previous one
/// (nullptr uninstalls).
Tracer* install(Tracer* t);

namespace detail {
extern std::atomic<Tracer*> g_tracer;
}
/// The installed tracer, or nullptr. One acquire load.
inline Tracer* current() {
  return detail::g_tracer.load(std::memory_order_acquire);
}

/// RAII install/restore. A null tracer leaves the ambient one in place
/// (so un-traced runs compose with an outer traced session).
class ScopedTracer {
 public:
  explicit ScopedTracer(Tracer* t)
      : active_(t != nullptr), prev_(active_ ? install(t) : nullptr) {}
  ~ScopedTracer() {
    if (active_) install(prev_);
  }

  ScopedTracer(const ScopedTracer&) = delete;
  ScopedTracer& operator=(const ScopedTracer&) = delete;

 private:
  bool active_;
  Tracer* prev_;
};

}  // namespace dmr::trace
