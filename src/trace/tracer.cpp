#include "trace/tracer.hpp"

#include <algorithm>

namespace dmr::trace {

const char* category_name(Category c) {
  switch (c) {
    case Category::kDes: return "des";
    case Category::kShm: return "shm";
    case Category::kPipeline: return "pipeline";
    case Category::kPersist: return "persist";
    case Category::kFault: return "fault";
    case Category::kPlugin: return "plugin";
    case Category::kMonitor: return "monitor";
  }
  return "?";
}

const char* entity_type_name(EntityType t) {
  switch (t) {
    case EntityType::kRank: return "ranks";
    case EntityType::kWriter: return "dedicated writers";
    case EntityType::kFsServer: return "fs servers";
    case EntityType::kMds: return "metadata servers";
    case EntityType::kShmClient: return "shm clients";
    case EntityType::kShmQueue: return "shm event queue";
    case EntityType::kShmBuffer: return "shm buffer";
    case EntityType::kNode: return "nodes";
  }
  return "?";
}

const char* entity_lane_name(EntityType t) {
  switch (t) {
    case EntityType::kRank: return "rank";
    case EntityType::kWriter: return "writer";
    case EntityType::kFsServer: return "fs-server";
    case EntityType::kMds: return "mds";
    case EntityType::kShmClient: return "client";
    case EntityType::kShmQueue: return "queue";
    case EntityType::kShmBuffer: return "buffer";
    case EntityType::kNode: return "node";
  }
  return "?";
}

Tracer::Tracer(TracerOptions opts)
    : categories_(opts.categories), t0_(WallClock::now()) {}

Tracer::~Tracer() {
  for (const std::atomic<TraceRing*>& s : shards_) {
    delete s.load(std::memory_order_acquire);
  }
}

void Tracer::set_enabled(Category c, bool on) {
  if (on) {
    categories_.fetch_or(category_bit(c), std::memory_order_relaxed);
  } else {
    categories_.fetch_and(~category_bit(c), std::memory_order_relaxed);
  }
}

TraceRing& Tracer::shard(EntityId entity) {
  // Entities map to shards by a cheap key mix; the first event in a
  // shard allocates its ring (CAS keeps exactly one winner).
  const std::uint64_t key = entity.key();
  const std::size_t idx =
      static_cast<std::size_t>(key ^ (key >> 29)) & (kShards - 1);
  TraceRing* ring = shards_[idx].load(std::memory_order_acquire);
  if (ring != nullptr) return *ring;
  auto* fresh = new TraceRing(kRingCapacity);
  TraceRing* expected = nullptr;
  if (shards_[idx].compare_exchange_strong(expected, fresh,
                                           std::memory_order_acq_rel)) {
    return *fresh;
  }
  delete fresh;
  return *expected;
}

void Tracer::record(const TraceEvent& ev) {
  if (!enabled(ev.cat)) return;
  shard(ev.entity).record(ev);
}

void Tracer::record_span(EntityId entity, Category cat, const char* name,
                         double t, double dur, std::uint64_t bytes,
                         std::int32_t phase) {
  TraceEvent ev;
  ev.name = name;
  ev.t = t;
  ev.dur = dur;
  ev.bytes = bytes;
  ev.entity = entity;
  ev.phase = phase;
  ev.cat = cat;
  ev.kind = EventKind::kSpan;
  record(ev);
}

void Tracer::record_instant(EntityId entity, Category cat, const char* name,
                            double t, std::uint64_t bytes,
                            std::int32_t phase) {
  TraceEvent ev;
  ev.name = name;
  ev.t = t;
  ev.bytes = bytes;
  ev.entity = entity;
  ev.phase = phase;
  ev.cat = cat;
  ev.kind = EventKind::kInstant;
  record(ev);
}

void Tracer::record_counter(EntityId entity, Category cat, const char* name,
                            double t, std::uint64_t value) {
  TraceEvent ev;
  ev.name = name;
  ev.t = t;
  ev.bytes = value;
  ev.entity = entity;
  ev.cat = cat;
  ev.kind = EventKind::kCounter;
  record(ev);
}

double Tracer::wall_now() const { return seconds_since(t0_); }

std::uint64_t Tracer::recorded() const {
  std::uint64_t n = 0;
  for (const std::atomic<TraceRing*>& s : shards_) {
    if (const TraceRing* r = s.load(std::memory_order_acquire)) {
      n += r->recorded();
    }
  }
  return n;
}

std::uint64_t Tracer::overwritten() const {
  std::uint64_t n = 0;
  for (const std::atomic<TraceRing*>& s : shards_) {
    if (const TraceRing* r = s.load(std::memory_order_acquire)) {
      n += r->overwritten();
    }
  }
  return n;
}

std::vector<TraceEvent> Tracer::drain() const {
  std::vector<TraceEvent> all;
  for (const std::atomic<TraceRing*>& s : shards_) {
    if (const TraceRing* r = s.load(std::memory_order_acquire)) {
      std::vector<TraceEvent> part = r->drain();
      all.insert(all.end(), part.begin(), part.end());
    }
  }
  // Deterministic order: time, then entity, then the per-ring order the
  // stable sort preserves from the concatenation above.
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.t != b.t) return a.t < b.t;
                     return a.entity < b.entity;
                   });
  return all;
}

namespace detail {
std::atomic<Tracer*> g_tracer{nullptr};
}

Tracer* install(Tracer* t) {
  return detail::g_tracer.exchange(t, std::memory_order_acq_rel);
}

}  // namespace dmr::trace
