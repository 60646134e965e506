#include "shm/shared_buffer.hpp"

#include <algorithm>
#include <new>
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
    if (capacity_ > 0) free_by_offset_.emplace(0, capacity_);
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

}  // namespace

void SharedBuffer::account_alloc(Bytes size) {
  const Bytes now = used_.fetch_add(size, std::memory_order_relaxed) + size;
  Bytes peak = peak_.load(std::memory_order_relaxed);
  while (now > peak &&
         !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }
  trace_used(now);
}

void SharedBuffer::account_free(Bytes size) {
  const Bytes now = used_.fetch_sub(size, std::memory_order_relaxed) - size;
  trace_used(now);
}

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
  MutexLock lock(mutex_);
  ShmObserver* o = observer();
  if (o) o->on_acquire({SyncPoint::Kind::kBufferMutex, this});
  if (o) o->on_release({SyncPoint::Kind::kBufferMutex, this});
  Bytes freed = 0;
  for (std::size_t i = 0; i < sorted.size();) {
    const Bytes offset = sorted[i].offset;
    Bytes end = offset;
    // One free-list insertion per run of back-to-back blocks.
    for (; i < sorted.size() && sorted[i].offset == end; ++i) {
      end += sorted[i].size;
    }
    free_range(offset, end - offset);
    freed += end - offset;
  }
  account_free(freed);
}

Result<Block> SharedBuffer::allocate_first_fit(Bytes size, int client_id) {
  MutexLock lock(mutex_);
  ShmObserver* o = observer();
  if (o) o->on_acquire({SyncPoint::Kind::kBufferMutex, this});
  auto release = [&] {
    if (o) o->on_release({SyncPoint::Kind::kBufferMutex, this});
  };
  for (auto it = free_by_offset_.begin(); it != free_by_offset_.end(); ++it) {
    if (it->second < size) continue;
    Block b{it->first, size, client_id};
    const Bytes remaining = it->second - size;
    const Bytes new_offset = it->first + size;
    free_by_offset_.erase(it);
    if (remaining > 0) free_by_offset_.emplace(new_offset, remaining);
    account_alloc(size);
    release();
    return b;
  }
  failed_.fetch_add(1, std::memory_order_relaxed);
  release();
  return out_of_memory("no free region of " + std::to_string(size) +
                       " bytes");
}

void SharedBuffer::free_range(Bytes offset, Bytes length) {
  // Coalesce with the next free range.
  auto next = free_by_offset_.lower_bound(offset);
  if (next != free_by_offset_.end() && offset + length == next->first) {
    length += next->second;
    next = free_by_offset_.erase(next);
  }
  // Coalesce with the previous free range.
  if (next != free_by_offset_.begin()) {
    auto prev = std::prev(next);
    if (prev->first + prev->second == offset) {
      prev->second += length;
      return;
    }
  }
  free_by_offset_.emplace(offset, length);
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
  account_alloc(size);
  return Block{p.base + h, size, client_id};
}

void SharedBuffer::deallocate_partitioned(const Block& block) {
  Partition& p = *partitions_[block.client_id];
  if (ShmObserver* o = observer()) {
    o->on_release({SyncPoint::Kind::kPartition, &p, block.client_id});
  }
  p.live.fetch_sub(block.size, std::memory_order_release);  // sync: partition_live
  account_free(block.size);
}

Status SharedBuffer::check_integrity() const {
  const Bytes used_now = used();
  if (used_now > capacity_) {
    return internal_error("used " + std::to_string(used_now) +
                          " exceeds capacity " + std::to_string(capacity_) +
                          " (accounting underflow)");
  }
  if (policy_ == AllocPolicy::kMutexFirstFit) {
    MutexLock lock(mutex_);
    Bytes total_free = 0;
    Bytes prev_end = 0;
    bool first = true;
    for (const auto& [offset, length] : free_by_offset_) {
      if (length == 0) {
        return internal_error("free list holds an empty region at offset " +
                              std::to_string(offset));
      }
      if (offset + length < offset || offset + length > capacity_) {
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
      prev_end = offset + length;
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
