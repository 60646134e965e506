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
// Gating is two-level, mirroring DMR_CHECK (DESIGN.md §8):
//  - compile time: hooks all over the codebase call trace::current();
//    with the DMR_TRACE CMake option OFF this is a constexpr nullptr
//    and every hook folds away, leaving the zero-trace hot path
//    byte-identical (verified by the DES determinism digests);
//  - runtime: with DMR_TRACE on, hooks fire only when a Tracer is
//    installed *and* the event's category is enabled on it.
//
// Thread-safety: record_*() and enabled() may be called from any
// thread. install()/ScopedTracer swap a process-wide atomic pointer —
// install from one thread at a time (the benches and tests run one
// traced workload per process) and only drain after the traced work
// quiesced. Tracing never feeds back into the traced system: a run
// with a tracer attached produces bit-identical results to a run
// without (pinned by trace_test).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/clock.hpp"
#include "trace/event.hpp"
#include "trace/ring.hpp"

namespace dmr::trace {

struct TracerOptions {
  /// Bitmask of Category values enabled at construction.
  std::uint32_t categories = kAllCategories;
  /// Events per shard ring (rounded up to a power of two).
  std::size_t ring_capacity = 4096;
  /// Number of entity shards (rounded up to a power of two). Shards are
  /// allocated lazily, so idle entities cost nothing.
  std::size_t shards = 256;
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

  const std::size_t num_shards_;  // power of two
  const std::size_t shard_mask_;
  const std::size_t ring_capacity_;
  std::atomic<std::uint32_t> categories_;
  std::unique_ptr<std::atomic<TraceRing*>[]> shards_;
  WallClock::time_point t0_;
};

/// Installs `t` as the process-wide tracer and returns the previous one
/// (nullptr uninstalls). No-op returning nullptr in non-DMR_TRACE
/// builds.
Tracer* install(Tracer* t);

#ifdef DMR_TRACE
namespace detail {
extern std::atomic<Tracer*> g_tracer;
}
/// The installed tracer, or nullptr. One relaxed-ish atomic load.
inline Tracer* current() {
  return detail::g_tracer.load(std::memory_order_acquire);
}
#else
/// DMR_TRACE is off: constexpr nullptr folds every hook to nothing.
inline constexpr Tracer* current() { return nullptr; }
#endif

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
