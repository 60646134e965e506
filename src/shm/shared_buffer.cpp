#include "shm/shared_buffer.hpp"

#include <algorithm>
#include <new>
#include <optional>
#include <string>

#include "shm/test_hooks.hpp"
#include "trace/tracer.hpp"

namespace dmr::shm {

SharedBuffer::SharedBuffer(Bytes capacity, AllocPolicy policy,
                           int num_clients)
    : memory_(new (std::nothrow) std::byte[capacity]),
      // Without memory the allocator manages zero bytes: an empty free
      // list or zero-length partitions fail every allocate().
      capacity_(memory_ ? capacity : 0),
      policy_(policy),
      num_clients_(num_clients),
      fault_seq_(new std::atomic<std::uint64_t>[
          static_cast<std::size_t>(num_clients > 0 ? num_clients : 1)]()) {
  if (policy_ == AllocPolicy::kMutexFirstFit) {
    if (capacity_ > 0) free_by_end_.emplace(capacity_, 0);
  } else if (num_clients_ > 0) {
    const Bytes slice = capacity_ / static_cast<Bytes>(num_clients_);
    partitions_.reserve(num_clients_);
    for (int c = 0; c < num_clients_; ++c) {
      auto p = std::make_unique<Partition>();
      p->base = slice * static_cast<Bytes>(c);
      p->length = slice;
      partitions_.push_back(std::move(p));
    }
  }
}

SharedBuffer::~SharedBuffer() = default;

namespace {

/// Samples buffer occupancy into the trace (Category::kShm, wall clock):
/// one "used" counter event per allocate/deallocate, rendered as the
/// occupancy curve the paper's buffer-sizing discussion (§III-B) reasons
/// about.
void trace_used(Bytes used_now) {
  if (trace::Tracer* tr = trace::current();
      tr != nullptr && tr->enabled(trace::Category::kShm)) {
    tr->record_counter({trace::EntityType::kShmBuffer, 0},
                       trace::Category::kShm, "used", tr->wall_now(),
                       used_now);
  }
}

Status used_underflow(Bytes used, Bytes capacity) {
  return internal_error("used " + std::to_string(used) + " exceeds capacity " +
                        std::to_string(capacity) + " (accounting underflow)");
}

}  // namespace

Result<Block> SharedBuffer::allocate(Bytes size, int client_id) {
  if (size == 0) {
    return invalid_argument("zero-size allocation");
  }
  if (client_id < 0 || client_id >= num_clients_) {
    return invalid_argument("client_id out of range");
  }
  if (const fault::FaultInjector* inj =
          fault_.load(std::memory_order_acquire)) {  // sync: buffer_fault
    const std::uint64_t seq = fault_seq_[static_cast<std::size_t>(client_id)]
                                  .fetch_add(1, std::memory_order_relaxed);
    if (inj->fires_rate(fault::Site::kShmExhaust,
                        fault::mix_key(static_cast<std::uint64_t>(client_id),
                                       seq))) {
      failed_.fetch_add(1, std::memory_order_relaxed);
      return out_of_memory("injected shm exhaustion");
    }
  }
  Result<Block> r = policy_ == AllocPolicy::kMutexFirstFit
                        ? allocate_first_fit(size, client_id)
                        : allocate_partitioned(size, client_id);
  // The block is still private to the allocating thread here, so the
  // observer sees the allocation before anyone can touch the bytes.
  if (r.is_ok()) {
    if (ShmObserver* o = observer()) o->on_allocate(r.value());
  }
  return r;
}

void SharedBuffer::deallocate(const Block& block) {
  if (!block.valid()) return;
  const std::span<const Block> one(&block, 1);
  deallocate_once(one);
  // Seeded double-release bug (tests/mc_test.cpp): return the block a
  // second time, corrupting the free list / partition counters. The
  // protocol checker and the free-list integrity invariant must both
  // flag it.
  if (test_hooks().double_deallocate) deallocate_once(one);
}

void SharedBuffer::deallocate_batch(std::vector<Block> blocks) {
  std::erase_if(blocks, [](const Block& b) { return !b.valid(); });
  std::sort(blocks.begin(), blocks.end(),
            [](const Block& a, const Block& b) { return a.offset < b.offset; });
  deallocate_once(blocks);
  // The seeded double-release bug, batch edition: the whole batch is
  // returned a second time.
  if (test_hooks().double_deallocate) deallocate_once(blocks);
}

void SharedBuffer::deallocate_once(std::span<const Block> sorted) {
  // Observed *before* the bytes return to the allocator: a release is
  // always seen before any re-allocation of the same offset.
  if (ShmObserver* o = observer()) {
    for (const Block& b : sorted) o->on_deallocate(b);
  }
  if (policy_ == AllocPolicy::kPartitioned) {
    for (const Block& b : sorted) deallocate_partitioned(b);
    return;
  }
  // One free region per run of back-to-back blocks. The runs' map nodes
  // are built here and the nodes that coalescing frees are destroyed
  // after the lock is released: the critical section only relinks.
  FreeList runs;
  Bytes freed = 0;
  for (std::size_t i = 0; i < sorted.size();) {
    const Bytes offset = sorted[i].offset;
    Bytes end = offset;
    for (; i < sorted.size() && sorted[i].offset == end; ++i) {
      end += sorted[i].size;
    }
    runs.emplace_hint(runs.end(), end, offset);
    freed += end - offset;
  }
  std::vector<FreeList::node_type> spent;
  spent.reserve(2 * runs.size());
  Bytes used_now = 0;
  {
    SpinMutexLock lock(mutex_);
    ShmObserver* o = observer();
    if (o) o->on_acquire({SyncPoint::Kind::kBufferMutex, this});
    if (o) o->on_release({SyncPoint::Kind::kBufferMutex, this});
    while (!runs.empty()) free_range(runs.extract(runs.begin()), spent);
    // Only the lock holder writes the counters: a load and a store.
    used_now = used_.load(std::memory_order_relaxed) - freed;
    used_.store(used_now, std::memory_order_relaxed);
  }
  trace_used(used_now);
}

Result<Block> SharedBuffer::allocate_first_fit(Bytes size, int client_id) {
  // A region used up exactly leaves its node here, to be destroyed
  // after the lock is released.
  FreeList::node_type spent;
  std::optional<Block> b;
  Bytes used_now = 0;
  {
    SpinMutexLock lock(mutex_);
    ShmObserver* o = observer();
    if (o) o->on_acquire({SyncPoint::Kind::kBufferMutex, this});
    for (auto it = free_by_end_.begin(); it != free_by_end_.end(); ++it) {
      const auto [end, start] = *it;
      if (end - start < size) continue;
      b = Block{start, size, client_id};
      // Take the front of the region: its end, the key, stays, so the
      // node is updated in place.
      if (end - start == size) {
        spent = free_by_end_.extract(it);
      } else {
        it->second = start + size;
      }
      // The counters share the lock's cache line, which this thread
      // holds: a load and a store each, no read-modify-write.
      used_now = used_.load(std::memory_order_relaxed) + size;
      used_.store(used_now, std::memory_order_relaxed);
      if (used_now > peak_.load(std::memory_order_relaxed)) {
        peak_.store(used_now, std::memory_order_relaxed);
      }
      break;
    }
    if (o) o->on_release({SyncPoint::Kind::kBufferMutex, this});
  }
  if (b) {
    trace_used(used_now);
    return *b;
  }
  failed_.fetch_add(1, std::memory_order_relaxed);
  return out_of_memory("no free region of " + std::to_string(size) +
                       " bytes");
}

void SharedBuffer::free_range(FreeList::node_type run,
                              std::vector<FreeList::node_type>& spent) {
  const Bytes start = run.mapped();
  const Bytes end = run.key();
  const auto next = free_by_end_.lower_bound(end);
  const auto prev = next == free_by_end_.begin() ? free_by_end_.end()
                                                  : std::prev(next);
  const bool joins_prev = prev != free_by_end_.end() && prev->first == start;
  if (next != free_by_end_.end() && next->second == end) {
    // The next region grows down over the run (and the previous one):
    // its end, the key, stays.
    next->second = joins_prev ? prev->second : start;
    if (joins_prev) spent.push_back(free_by_end_.extract(prev));
    spent.push_back(std::move(run));
    return;
  }
  if (joins_prev) {
    // The previous region grows up to the run's end: a new key, so the
    // run's node takes the place of the previous region's.
    run.mapped() = prev->second;
    spent.push_back(free_by_end_.extract(prev));
  }
  free_by_end_.insert(next, std::move(run));
}

Result<Block> SharedBuffer::allocate_partitioned(Bytes size, int client_id) {
  Partition& p = *partitions_[client_id];
  // The acquire-load of `live` below synchronizes with the server's
  // release-decrement in deallocate_partitioned — that edge is what
  // makes the rewind safe, and is mirrored to the race detector here.
  if (ShmObserver* o = observer()) {
    o->on_acquire({SyncPoint::Kind::kPartition, &p, client_id});
  }
  // Only this client bumps this partition's head, so plain loads suffice
  // for the decision; the server only ever decrements `live`.
  if (p.live.load(std::memory_order_acquire) == 0) {  // sync: partition_live
    // Everything previously handed to the server was consumed: rewind.
    p.head.store(0, std::memory_order_relaxed);
  }
  const Bytes h = p.head.load(std::memory_order_relaxed);
  if (h + size > p.length) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    return out_of_memory("partition of client " + std::to_string(client_id) +
                         " full");
  }
  p.head.store(h + size, std::memory_order_relaxed);
  p.live.fetch_add(size, std::memory_order_release);  // sync: partition_live
  // No lock orders the counters under this policy: every client
  // updates them with read-modify-writes.
  const Bytes now = used_.fetch_add(size, std::memory_order_relaxed) + size;
  Bytes peak = peak_.load(std::memory_order_relaxed);
  while (now > peak &&
         !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }
  trace_used(now);
  return Block{p.base + h, size, client_id};
}

void SharedBuffer::deallocate_partitioned(const Block& block) {
  Partition& p = *partitions_[block.client_id];
  if (ShmObserver* o = observer()) {
    o->on_release({SyncPoint::Kind::kPartition, &p, block.client_id});
  }
  p.live.fetch_sub(block.size, std::memory_order_release);  // sync: partition_live
  trace_used(used_.fetch_sub(block.size, std::memory_order_relaxed) -
             block.size);
}

Status SharedBuffer::check_integrity() const {
  if (policy_ == AllocPolicy::kMutexFirstFit) {
    // First-fit stores used() under its lock: read it there.
    SpinMutexLock lock(mutex_);
    const Bytes used_now = used();
    if (used_now > capacity_) return used_underflow(used_now, capacity_);
    Bytes total_free = 0;
    Bytes prev_end = 0;
    bool first = true;
    for (const auto& [end, offset] : free_by_end_) {
      if (end <= offset) {
        return internal_error("free list holds an empty or inverted region "
                              "at offset " + std::to_string(offset));
      }
      const Bytes length = end - offset;
      if (end > capacity_) {
        return internal_error("free region [" + std::to_string(offset) +
                              ", +" + std::to_string(length) +
                              ") exceeds capacity");
      }
      if (!first && offset < prev_end) {
        return internal_error("free regions overlap at offset " +
                              std::to_string(offset) +
                              " (double release corrupted the free list)");
      }
      if (!first && offset == prev_end) {
        return internal_error("adjacent free regions not coalesced at offset " +
                              std::to_string(offset));
      }
      prev_end = end;
      total_free += length;
      first = false;
    }
    if (total_free + used_now != capacity_) {
      return internal_error(
          "free (" + std::to_string(total_free) + ") + used (" +
          std::to_string(used_now) + ") != capacity (" +
          std::to_string(capacity_) + ") — blocks lost or freed twice");
    }
    return Status::ok();
  }
  const Bytes used_now = used();
  if (used_now > capacity_) return used_underflow(used_now, capacity_);
  Bytes total_live = 0;
  for (int c = 0; c < num_clients_; ++c) {
    const Partition& p = *partitions_[c];
    const Bytes head = p.head.load(std::memory_order_relaxed);
    const Bytes live = p.live.load(std::memory_order_relaxed);
    if (head > p.length) {
      return internal_error("partition " + std::to_string(c) +
                            ": head past partition end");
    }
    if (live > head) {
      return internal_error(
          "partition " + std::to_string(c) + ": live " + std::to_string(live) +
          " exceeds head " + std::to_string(head) +
          " (double release underflowed the live counter)");
    }
    total_live += live;
  }
  if (total_live != used_now) {
    return internal_error("partition live sum (" + std::to_string(total_live) +
                          ") disagrees with used (" + std::to_string(used_now) +
                          ")");
  }
  return Status::ok();
}

}  // namespace dmr::shm
