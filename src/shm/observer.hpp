// Instrumentation hooks for the shared-memory layer.
//
// The client/server handoff (paper §III-B: allocate in the shared
// buffer, write, publish through the event queue, consume, release) is
// exactly the kind of cross-thread protocol that fails silently: a
// double release corrupts the free list, a write after publish races
// the server's read. An ShmObserver sees every step of that protocol
// and can maintain shadow state to detect misuse — see
// check/protocol_checker.hpp for the implementation.
//
// Hooks are always compiled in. With no observer attached, the cost per
// operation is one acquire load and a predictable branch.
//
// Ordering guarantees relied upon by checkers:
//  - on_allocate / on_write run on the owning client's thread before
//    the block is visible to anyone else;
//  - on_push runs under the queue lock, so it happens-before the
//    matching on_pop. The queue lock is the only edge the hooks
//    report for a message: the lock-free ready_ flag and sleep
//    announcement (EventQueue's sleep handshake) only decide whether a
//    popper sleeps, and it takes the lock before it touches a message;
//  - on_deallocate runs *before* the bytes are returned to the
//    allocator, so a release is always observed before any re-use of
//    the same offset;
//  - on_acquire / on_release bracket each critical section of the
//    queue lock and the first-fit lock, whatever kind of lock it is
//    (both are dmr::SpinMutex).
#pragma once

#include <cstdint>

namespace dmr::shm {

struct Block;
struct Message;

/// Identity of a synchronization object, for happens-before analysis
/// (mc::HbRaceDetector). Every acquire/release pair on the same
/// SyncPoint creates a happens-before edge from the releasing thread's
/// past to the acquiring thread's future:
///  - kQueueMutex: the event queue's lock (enqueue/pop/close each
///    acquire on entry and release on exit of the critical section);
///  - kBufferMutex: the first-fit allocator's mutex;
///  - kPartition: a partitioned-policy per-client region — deallocate's
///    fetch_sub(release) on `live` synchronizes with allocate's
///    load(acquire), which is what makes partition rewind safe.
struct SyncPoint {
  enum class Kind : std::uint8_t { kQueueMutex, kBufferMutex, kPartition };
  Kind kind = Kind::kQueueMutex;
  const void* object = nullptr;  // the queue / buffer / partition
  int index = -1;                // partition's client id, else -1
};

/// Number of SyncPoint::Kind enumerators. sync_channels.hpp
/// static_asserts its channel table against this so the table cannot
/// silently fall out of step when a kind is added.
inline constexpr int kNumSyncPointKinds = 3;

class ShmObserver {
 public:
  virtual ~ShmObserver() = default;

  // --- SharedBuffer ---
  /// A block was just reserved for its client.
  virtual void on_allocate(const Block& block) { (void)block; }
  /// The owning client finished writing the block's payload
  /// (SharedBuffer::note_write).
  virtual void on_write(const Block& block) { (void)block; }
  /// The consuming side finished reading the block's payload
  /// (SharedBuffer::note_read).
  virtual void on_read(const Block& block) { (void)block; }
  /// The block is about to be returned to the allocator.
  virtual void on_deallocate(const Block& block) { (void)block; }

  // --- synchronization edges (both SharedBuffer and EventQueue) ---
  /// The current thread acquired `sync` (joins the sync object's clock
  /// into the thread's — mutex lock, acquire-load).
  virtual void on_acquire(const SyncPoint& sync) { (void)sync; }
  /// The current thread released `sync` (joins the thread's clock into
  /// the sync object's — mutex unlock, release-store).
  virtual void on_release(const SyncPoint& sync) { (void)sync; }

  // --- EventQueue ---
  /// A message was offered to the queue. `accepted` is false when the
  /// queue was already closed and the message was dropped.
  virtual void on_push(const Message& msg, bool accepted) {
    (void)msg;
    (void)accepted;
  }
  /// A message was handed to a consumer (pop, try_pop or pop_all).
  virtual void on_pop(const Message& msg) { (void)msg; }
  /// The queue was closed.
  virtual void on_close() {}
};

}  // namespace dmr::shm
