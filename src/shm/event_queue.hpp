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
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>

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

  /// Enqueues a message (never blocks). Returns false — and drops the
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
  /// first, under one lock acquisition. Returns false only after close()
  /// with an empty queue.
  [[nodiscard]] bool pop_all(std::deque<Message>& out);

  /// Wakes all poppers; pop() drains remaining messages, then returns
  /// nullopt. Idempotent.
  void close();

  bool closed() const;
  std::size_t size() const;

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

  mutable Mutex mutex_;
  CondVar cv_;
  std::deque<Message> queue_ DMR_GUARDED_BY(mutex_);
  bool closed_ DMR_GUARDED_BY(mutex_) = false;
  std::uint64_t pushed_ DMR_GUARDED_BY(mutex_) = 0;
  std::uint64_t dropped_ DMR_GUARDED_BY(mutex_) = 0;
  std::atomic<ShmObserver*> observer_{nullptr};
};

}  // namespace dmr::shm
