#include "shm/event_queue.hpp"

#include <algorithm>

#include "shm/test_hooks.hpp"
#include "trace/tracer.hpp"

namespace dmr::shm {

namespace {

/// Queue traffic instants (Category::kShm, wall clock). Pushes land on
/// the issuing client's lane, pops on the queue's consumer lane, so a
/// Perfetto view shows the fan-in from compute cores to the dedicated
/// core's event processing engine.
void trace_msg(const char* name, trace::EntityId entity, const Message& m) {
  if (trace::Tracer* tr = trace::current();
      tr != nullptr && tr->enabled(trace::Category::kShm)) {
    tr->record_instant(entity, trace::Category::kShm, name, tr->wall_now(),
                       m.block.size, static_cast<std::int32_t>(m.iteration));
  }
}

trace::EntityId client_lane(const Message& m) {
  return {trace::EntityType::kShmClient,
          static_cast<std::uint32_t>(std::max(0, m.client_id))};
}

}  // namespace

bool EventQueue::push(const Message& msg) {
  if (!enqueue(msg)) return false;
  wake_sleeper();
  return true;
}

bool EventQueue::enqueue(const Message& msg) {
  SpinMutexLock lock(mutex_);
  ShmObserver* o = observer();
  // The mutex is a synchronization object: entering the critical
  // section acquires every prior release on this queue, leaving it
  // releases our own history (mc::HbRaceDetector semantics).
  if (o) o->on_acquire({SyncPoint::Kind::kQueueMutex, this});
  if (closed_) {
    ++dropped_;
    // Observed under the lock so publish/consume hooks of distinct
    // messages are seen in queue order.
    if (o) {
      o->on_push(msg, /*accepted=*/false);
      o->on_release({SyncPoint::Kind::kQueueMutex, this});
    }
    trace_msg("push-dropped", client_lane(msg), msg);
    return false;
  }
  queue_.push_back(msg);
  ++pushed_;
  // Only this lock's holders store ready_, so the relaxed load reads
  // the latest value, and a push onto a non-empty queue skips the store.
  if (!ready_.load(std::memory_order_relaxed)) {
    ready_.store(true, std::memory_order_release);  // sync: queue_ready
  }
  if (o) {
    o->on_push(msg, /*accepted=*/true);
    o->on_release({SyncPoint::Kind::kQueueMutex, this});
  }
  trace_msg("push", client_lane(msg), msg);
  return true;
}

bool EventQueue::wake_sleeper() {
  // Orders the enqueue's store of ready_ before the read below; the
  // consumer orders its announcement before its re-check the same way.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (asleep_.load(std::memory_order_relaxed) == 0) return false;
  // One waker clears the word and notifies; wait() on the other side
  // returns once the word is no longer 1.
  if (asleep_.exchange(0, std::memory_order_release) == 0) {  // sync: queue_wake
    return false;
  }
  asleep_.notify_all();
  return true;
}

void EventQueue::announce_sleep() {
  asleep_.store(1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
}

bool EventQueue::ready() const {
  return ready_.load(std::memory_order_acquire);  // sync: queue_ready
}

bool EventQueue::asleep() const {
  return asleep_.load(std::memory_order_acquire) != 0;  // sync: queue_wake
}

void EventQueue::wait_ready() {
  while (!ready()) {
    announce_sleep();
    // Seeded lost-wakeup bug (tests/mc_test.cpp): park without the
    // re-check, so a push that read the word before the announcement
    // wakes nobody.
    if (!test_hooks().park_without_recheck && ready()) return;
    // A re-check that found work leaves the announcement standing: the
    // next push clears it. Clearing it here could erase another
    // popper's announcement while that popper is parked.
    asleep_.wait(1, std::memory_order_acquire);  // sync: queue_wake
  }
}

std::optional<Message> EventQueue::pop_locked() {
  ShmObserver* o = observer();
  if (o) o->on_acquire({SyncPoint::Kind::kQueueMutex, this});
  if (queue_.empty()) {
    if (o) o->on_release({SyncPoint::Kind::kQueueMutex, this});
    return std::nullopt;
  }
  const Message m = queue_[head_++];
  if (head_ == queue_.size()) {
    // Drained: later pushes reuse the storage from the front.
    queue_.clear();
    head_ = 0;
  }
  ready_.store(!queue_.empty() || closed_,
               std::memory_order_release);  // sync: queue_ready
  if (o) {
    o->on_pop(m);
    o->on_release({SyncPoint::Kind::kQueueMutex, this});
  }
  trace_msg("pop", {trace::EntityType::kShmQueue, 0}, m);
  return m;
}

std::optional<Message> EventQueue::pop() {
  for (;;) {
    wait_ready();
    SpinMutexLock lock(mutex_);
    // Empty and open again: another popper took the message.
    if (!queue_.empty() || closed_) return pop_locked();
  }
}

std::optional<Message> EventQueue::try_pop() {
  SpinMutexLock lock(mutex_);
  return pop_locked();
}

bool EventQueue::pop_all(std::vector<Message>& out) {
  out.clear();
  for (;;) {
    wait_ready();
    SpinMutexLock lock(mutex_);
    // Empty and open again: another popper took the messages.
    if (queue_.empty() && !closed_) continue;
    ShmObserver* o = observer();
    if (o) o->on_acquire({SyncPoint::Kind::kQueueMutex, this});
    // Messages pop() or try_pop() already took are not handed out again.
    queue_.erase(queue_.begin(), queue_.begin() + head_);
    head_ = 0;
    out.swap(queue_);
    ready_.store(closed_, std::memory_order_release);  // sync: queue_ready
    if (o) {
      for (const Message& m : out) o->on_pop(m);
      o->on_release({SyncPoint::Kind::kQueueMutex, this});
    }
    break;
  }
  for (const Message& m : out) {
    trace_msg("pop", {trace::EntityType::kShmQueue, 0}, m);
  }
  return !out.empty();
}

void EventQueue::close() {
  {
    SpinMutexLock lock(mutex_);
    if (closed_) return;
    ShmObserver* o = observer();
    if (o) o->on_acquire({SyncPoint::Kind::kQueueMutex, this});
    closed_ = true;
    ready_.store(true, std::memory_order_release);  // sync: queue_ready
    if (o) {
      o->on_close();
      o->on_release({SyncPoint::Kind::kQueueMutex, this});
    }
  }
  // Seeded lost-wakeup bug (tests/mc_test.cpp): forget to wake blocked
  // poppers. The model checker's wait-channel model reads the same
  // flag and reports the resulting deadlock.
  if (test_hooks().skip_notify_on_close) return;
  // Unconditional, unlike push: every parked popper must see the close.
  asleep_.store(0, std::memory_order_release);  // sync: queue_wake
  asleep_.notify_all();
}

bool EventQueue::closed() const {
  SpinMutexLock lock(mutex_);
  return closed_;
}

std::size_t EventQueue::size() const {
  SpinMutexLock lock(mutex_);
  return queue_.size() - head_;
}

std::uint64_t EventQueue::pushed() const {
  SpinMutexLock lock(mutex_);
  return pushed_;
}

std::uint64_t EventQueue::dropped() const {
  SpinMutexLock lock(mutex_);
  return dropped_;
}

}  // namespace dmr::shm
