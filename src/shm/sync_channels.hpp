// The shared-memory layer's synchronization-channel table — the single
// machine-readable description of every acquire/release protocol in
// src/shm, consumed by BOTH ends of the verification stack:
//
//  - mc::HbRaceDetector reads it (sync_channel_name) to label the
//    happens-before edges it tracks at runtime;
//  - tools/dmr_verify reads it textually (it is an X-macro list, no
//    preprocessor tricks beyond token pasting) and cross-checks that
//    every memory_order_acquire/release site in src/shm carries a
//    `sync: <channel>` comment naming an entry here, and that every
//    entry has both an acquire and a release side somewhere in the
//    tree — a dead entry means the table drifted from the code.
//
// Two entry families:
//
//  DMR_SYNC_POINT_CHANNELS — channels backed by a SyncPoint::Kind
//  (observer.hpp): the runtime race detector sees these through
//  on_acquire/on_release hooks. X(kind_enumerator, channel_name).
//
//  DMR_ATOMIC_CHANNELS — pure atomic acquire/release pairs with no
//  SyncPoint (observer/fault-injector publication pointers): only the
//  static analyzer checks these. X(channel_name).
//
// Adding a protocol: add the entry here, annotate the acquire AND the
// release site with `// sync: <channel>`, and (for a new Kind) bump
// kNumSyncPointKinds in observer.hpp — the static_asserts below and
// the dmr_verify sync-channel rule each fail loudly on a half-done
// rollout.
#pragma once

#include "shm/observer.hpp"

// clang-format off
/// SyncPoint-backed channels: X(kind, channel).
///  - queue_mutex:    EventQueue's lock, taken by enqueue, pop, try_pop,
///    pop_all and close. Messages pass only under it, and it orders
///    the pre-check of ready_ that lets a push skip a redundant store.
///  - buffer_mutex:   the first-fit allocator's lock. Besides the free
///    list it orders first-fit's relaxed stores of used_ and peak_,
///    which share its cache line.
///  - partition_live: partitioned-policy per-client `live` counter —
///    deallocate's fetch_sub(release) pairs with allocate's
///    load(acquire) to make partition rewind safe.
#define DMR_SYNC_POINT_CHANNELS(X) \
  X(kQueueMutex,  queue_mutex)     \
  X(kBufferMutex, buffer_mutex)    \
  X(kPartition,   partition_live)

/// Atomic-only channels: X(channel).
///  - queue_observer:  EventQueue::observer_ publication pointer.
///  - queue_ready:     EventQueue::ready_, the lock-free mirror of
///    "a message is queued or the queue is closed", on the producers'
///    cache line: stored (release) under the queue lock, by a push only
///    when it is clear, and loaded (acquire) by a popper's check and
///    re-check before it sleeps.
///  - queue_wake:      EventQueue::asleep_, the sleep announcement a
///    popper parks on, alone on its cache line: push and close clear it
///    (release) to wake it, the parked popper's wait and asleep() read
///    it (acquire). The announcement itself is ordered by seq_cst
///    fences, not by this pair (event_queue.hpp).
///  - buffer_observer: SharedBuffer::observer_ publication pointer, on
///    a line the allocators read but never write.
///  - buffer_fault:    SharedBuffer::fault_ injector publication pointer.
#define DMR_ATOMIC_CHANNELS(X) \
  X(queue_observer)            \
  X(queue_ready)               \
  X(queue_wake)                \
  X(buffer_observer)           \
  X(buffer_fault)
// clang-format on

namespace dmr::shm {

namespace detail {
#define DMR_SYNC_COUNT(kind, channel) +1
inline constexpr int kSyncPointChannelCount =
    0 DMR_SYNC_POINT_CHANNELS(DMR_SYNC_COUNT);
#undef DMR_SYNC_COUNT
}  // namespace detail

static_assert(detail::kSyncPointChannelCount == kNumSyncPointKinds,
              "sync_channels.hpp: DMR_SYNC_POINT_CHANNELS must cover every "
              "SyncPoint::Kind exactly once (update the table and "
              "kNumSyncPointKinds together)");

/// Channel name for a SyncPoint kind, as listed in
/// DMR_SYNC_POINT_CHANNELS. Used by the runtime race detector's report
/// so its output names the same channels the static analyzer checks.
constexpr const char* sync_channel_name(SyncPoint::Kind kind) {
  switch (kind) {
#define DMR_SYNC_NAME(k, channel)  \
  case SyncPoint::Kind::k:         \
    return #channel;
    DMR_SYNC_POINT_CHANNELS(DMR_SYNC_NAME)
#undef DMR_SYNC_NAME
  }
  return "?";
}

}  // namespace dmr::shm
