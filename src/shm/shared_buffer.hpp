// Shared memory buffer between compute cores (clients) and the dedicated
// I/O core (server) of one node — the heart of the Damaris design (§III-B
// "Shared-memory").
//
// The paper describes two reservation algorithms, both implemented here:
//  - kMutexFirstFit: a general-purpose mutex-protected first-fit free
//    list (the "default mutex-based allocation algorithm of the Boost
//    library" in the original);
//  - kPartitioned: a lock-free scheme for the common case where all
//    clients write the same amount of data per iteration — the buffer is
//    split into as many regions as clients and each client bump-allocates
//    within its own region with no synchronization at all.
//
// In the original, this segment is OS shared memory between processes of
// one node; here clients and server are threads of one process, so the
// segment is ordinary heap memory with the same allocation discipline.
#pragma once

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "common/thread_annotations.hpp"
#include "common/units.hpp"
#include "fault/fault.hpp"
#include "shm/observer.hpp"

namespace dmr::shm {

/// A reserved region of the shared buffer. Valid until freed.
struct Block {
  Bytes offset = 0;
  Bytes size = 0;
  int client_id = -1;

  bool valid() const { return size > 0; }
};

enum class AllocPolicy {
  kMutexFirstFit,
  kPartitioned,
};

class SharedBuffer {
 public:
  /// `num_clients` is required by the partitioned policy (ignored by the
  /// mutex policy, but kept for accounting either way). With fewer than
  /// one client there are no partitions and every allocate() fails.
  /// When `capacity` bytes cannot be allocated the buffer has no memory:
  /// capacity() is 0 and every allocate() fails with kOutOfMemory.
  SharedBuffer(Bytes capacity, AllocPolicy policy, int num_clients);
  ~SharedBuffer();

  SharedBuffer(const SharedBuffer&) = delete;
  SharedBuffer& operator=(const SharedBuffer&) = delete;

  /// Reserves `size` bytes for `client_id`. Fails with kOutOfMemory when
  /// no suitable region exists (the caller decides whether to block,
  /// spill or drop — Damaris's server frees blocks as it consumes them).
  Result<Block> allocate(Bytes size, int client_id);

  /// Returns a block to the buffer. Safe to call from any thread.
  void deallocate(const Block& block);

  /// Returns a batch of blocks at once (the dedicated core frees an
  /// iteration's blocks together). First-fit sorts them by offset and
  /// coalesces contiguous runs under one lock acquisition. Every block
  /// is observed (on_deallocate) before any of them returns to the
  /// allocator.
  void deallocate_batch(std::vector<Block> blocks);

  /// Declares that the owning client finished writing `block`'s
  /// payload. Pure instrumentation: forwards to the attached observer
  /// (protocol checker, race detector) and is otherwise a no-op.
  void note_write(const Block& block) {
    if (ShmObserver* o = observer()) o->on_write(block);
  }

  /// Declares that the consuming side (the dedicated core) read
  /// `block`'s payload. Pure instrumentation, like note_write: the race
  /// detector pairs this read against client writes to the same range.
  void note_read(const Block& block) {
    if (ShmObserver* o = observer()) o->on_read(block);
  }

  /// Validates allocator-internal invariants: free regions sorted,
  /// disjoint, coalesced and in-bounds (first-fit); 0 <= live <= head
  /// <= length per partition (partitioned); accounting consistent with
  /// capacity. Returns the first violated invariant. Cheap enough to
  /// run after every step of a model-checked scenario; takes the
  /// allocator lock, so don't call it from an allocation path.
  Status check_integrity() const;

  /// Attaches (or detaches, with nullptr) a protocol observer. The
  /// observer must outlive the buffer or be detached first.
  void set_observer(ShmObserver* obs) {
    observer_.store(obs, std::memory_order_release);  // sync: buffer_observer
  }

  /// Attaches (or detaches, with nullptr) a fault injector: rate-based
  /// shm.exhaust rules fail allocations with kOutOfMemory before the
  /// allocator runs, keyed by (client, per-client allocation count) so
  /// a deterministic call sequence replays the same failures. The
  /// injector must outlive the buffer or be detached first.
  void set_fault_injector(const fault::FaultInjector* injector) {
    fault_.store(injector, std::memory_order_release);  // sync: buffer_fault
  }

  /// Pointer to the block's memory.
  std::byte* data(const Block& block) {
    return memory_.get() + block.offset;
  }
  const std::byte* data(const Block& block) const {
    return memory_.get() + block.offset;
  }

  Bytes capacity() const { return capacity_; }
  AllocPolicy policy() const { return policy_; }
  int num_clients() const { return num_clients_; }

  /// Bytes currently reserved.
  Bytes used() const { return used_.load(std::memory_order_relaxed); }
  /// High-water mark of `used()`.
  Bytes peak_used() const { return peak_.load(std::memory_order_relaxed); }
  /// Number of allocations that failed for lack of space.
  std::uint64_t failed_allocations() const {
    return failed_.load(std::memory_order_relaxed);
  }

 private:
  ShmObserver* observer() const {
    return observer_.load(std::memory_order_acquire);  // sync: buffer_observer
  }

  Result<Block> allocate_first_fit(Bytes size, int client_id);
  Result<Block> allocate_partitioned(Bytes size, int client_id);
  /// Observes, then frees, valid blocks sorted by offset; first-fit
  /// coalesces contiguous runs under one lock acquisition.
  void deallocate_once(std::span<const Block> sorted);
  /// Returns [offset, offset + length) to the free list, coalescing
  /// with its neighbours. Caller holds mutex_.
  void free_range(Bytes offset, Bytes length) DMR_REQUIRES(mutex_);
  void deallocate_partitioned(const Block& block);
  void account_alloc(Bytes size);
  void account_free(Bytes size);

  std::unique_ptr<std::byte[]> memory_;  // null when unallocatable
  const Bytes capacity_;                  // 0 when memory_ is null
  const AllocPolicy policy_;
  const int num_clients_;

  std::atomic<Bytes> used_{0};
  std::atomic<Bytes> peak_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<ShmObserver*> observer_{nullptr};
  std::atomic<const fault::FaultInjector*> fault_{nullptr};
  /// Per-client allocation counters keying injected exhaustion.
  std::unique_ptr<std::atomic<std::uint64_t>[]> fault_seq_;

  // --- first-fit state (mutex-protected) ---
  mutable Mutex mutex_;  // mutable: check_integrity() is const
  /// offset -> length
  std::map<Bytes, Bytes> free_by_offset_ DMR_GUARDED_BY(mutex_);

  // --- partitioned state (lock-free per client) ---
  struct alignas(64) Partition {
    std::atomic<Bytes> head{0};   // bump pointer within [base, base+len)
    std::atomic<Bytes> live{0};   // bytes currently allocated
    Bytes base = 0;
    Bytes length = 0;
  };
  std::vector<std::unique_ptr<Partition>> partitions_;
};

}  // namespace dmr::shm
