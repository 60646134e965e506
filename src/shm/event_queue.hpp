// Event queue between clients and the dedicated core (paper §III-B
// "Event queue").
//
// Clients push write-notifications and user-defined events; the server's
// event processing engine (EPE) pops them. Multi-producer (all compute
// cores), single-consumer (the dedicated core). Bounded-less: the queue
// holds small descriptors only — bulk data lives in the SharedBuffer.
//
// Close/drain protocol: close() marks the queue closed and wakes every
// blocked popper. Messages already queued are still drained in FIFO
// order; once empty, pop() returns nullopt. A push() after close() is
// dropped (counted in dropped()) — the server is shutting down and
// would never consume it, so accepting it would leak its shared-memory
// block.
//
// Sleep handshake (DESIGN.md §14.1): a consumer that finds the queue
// empty announces that it is going to sleep, re-checks the queue, then
// parks on the announcement word. A push wakes it only when it has
// announced: after enqueuing, the producer reads the word, and clears
// it and wakes the consumer when it is set. A seq_cst fence between
// each side's store and its load means at least one side sees the
// other: the re-check sees the message, or the push sees the
// announcement. So no wake-up is lost, and a push to a consumer that
// is awake makes no syscall. close() wakes unconditionally. The
// messages themselves still pass under the queue lock, in one FIFO: a
// vector that pop_all() swaps with the consumer's emptied batch, so
// that once both have grown to the largest batch no push allocates.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_annotations.hpp"
#include "shm/observer.hpp"
#include "shm/shared_buffer.hpp"

namespace dmr::shm {

enum class MessageType {
  kWriteNotification,  // a variable block is ready in shared memory
  kUserEvent,          // df_signal: trigger a configured action
  kClientFinalize,     // a client is done; server exits when all are
};

/// Descriptor passed through the queue. `name_id` indexes into the
/// metadata system (variable or event name); the payload, if any, lives
/// in the shared buffer at `block`.
struct Message {
  MessageType type = MessageType::kUserEvent;
  int client_id = -1;     // "source" in the paper's tuple
  std::int64_t iteration = 0;
  std::uint32_t name_id = 0;
  Block block;            // valid for kWriteNotification
};

class EventQueue {
 public:
  EventQueue() = default;

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Enqueues a message (never blocks) and wakes a consumer that
  /// announced it is going to sleep. Returns false — and drops the
  /// message — when the queue is already closed. Callers must not
  /// ignore the result: a dropped kWriteNotification still owns its
  /// shared-memory block, and whoever pushed it must release the block
  /// or it leaks until shutdown (see core::Client::write_sized).
  [[nodiscard]] bool push(const Message& msg);

  /// Pops the oldest message, blocking until one is available or
  /// `close()` is called. Returns nullopt only after close() with an
  /// empty queue.
  [[nodiscard]] std::optional<Message> pop();

  /// Non-blocking pop.
  [[nodiscard]] std::optional<Message> try_pop();

  /// Batch pop for the dedicated core: blocks like pop(), then moves
  /// every queued message into `out` (replacing its contents), oldest
  /// first, under one lock acquisition. `out`'s storage becomes the
  /// queue's, so reusing one batch vector keeps pushes from allocating.
  /// Returns false only after close() with an empty queue.
  [[nodiscard]] bool pop_all(std::vector<Message>& out);

  /// Wakes all poppers; pop() drains remaining messages, then returns
  /// nullopt. Idempotent.
  void close();

  bool closed() const;
  std::size_t size() const;

  // --- the sleep handshake, one step at a time. push() is enqueue()
  // then wake_sleeper(); pop() and pop_all() run announce_sleep(),
  // ready() and the park in that order. The model checker (src/mc)
  // runs each step as its own transition.

  /// push() without the wake-up: appends under the lock, wakes nobody.
  [[nodiscard]] bool enqueue(const Message& msg);
  /// push()'s second half: the fence, then the read of the sleep
  /// announcement. Clears it and wakes the parked consumers when it
  /// is set; returns whether it was.
  bool wake_sleeper();
  /// Consumer: announces that it is going to sleep (store, then fence).
  void announce_sleep();
  /// Lock-free: a message is queued or the queue is closed. The
  /// consumer's check before it sleeps and its re-check after it
  /// announced.
  bool ready() const;
  /// Consumer: the announcement still stands (nobody woke it since);
  /// a parked consumer sleeps while this holds.
  bool asleep() const;

  /// Total messages ever pushed (for stats).
  std::uint64_t pushed() const;

  /// Messages dropped because they were pushed after close().
  std::uint64_t dropped() const;

  /// Attaches (or detaches, with nullptr) a protocol observer. The
  /// observer must outlive the queue or be detached first.
  void set_observer(ShmObserver* obs) {
    observer_.store(obs, std::memory_order_release);  // sync: queue_observer
  }

 private:
  ShmObserver* observer() const {
    return observer_.load(std::memory_order_acquire);  // sync: queue_observer
  }

  /// Returns once ready(): announce, re-check, park, until a message
  /// is queued or the queue is closed.
  void wait_ready();
  /// Takes the oldest message; nullopt when the queue is empty.
  std::optional<Message> pop_locked() DMR_REQUIRES(mutex_);

  // Three cache lines: what a push writes under the lock, the word the
  // consumer announces its sleep on, and the read-mostly observer.

  /// Every write takes this lock, so it spins before it parks.
  alignas(64) mutable SpinMutex mutex_;
  bool closed_ DMR_GUARDED_BY(mutex_) = false;
  /// `!queue_.empty() || closed_`, stored under mutex_ by every
  /// operation that changes either, so a consumer can tell whether
  /// there is work without taking the lock. A push stores it only when
  /// it is clear.
  std::atomic<bool> ready_{false};
  /// The queued messages are queue_[head_..]: pop() and try_pop()
  /// advance head_ and empty the vector once it is drained, so
  /// queue_.empty() means no message is queued.
  std::vector<Message> queue_ DMR_GUARDED_BY(mutex_);
  std::size_t head_ DMR_GUARDED_BY(mutex_) = 0;
  std::uint64_t pushed_ DMR_GUARDED_BY(mutex_) = 0;
  std::uint64_t dropped_ DMR_GUARDED_BY(mutex_) = 0;
  /// 1 while a consumer has announced it is going to sleep; the word
  /// it parks on. Cleared by the push or close that wakes it.
  alignas(64) std::atomic<std::uint32_t> asleep_{0};
  alignas(64) std::atomic<ShmObserver*> observer_{nullptr};
};

}  // namespace dmr::shm
