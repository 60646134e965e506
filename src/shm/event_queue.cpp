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
  {
    MutexLock lock(mutex_);
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
    if (o) {
      o->on_push(msg, /*accepted=*/true);
      o->on_release({SyncPoint::Kind::kQueueMutex, this});
    }
    trace_msg("push", client_lane(msg), msg);
  }
  cv_.notify_one();
  return true;
}

std::optional<Message> EventQueue::pop() {
  MutexLock lock(mutex_);
  while (queue_.empty() && !closed_) cv_.wait(mutex_);
  ShmObserver* o = observer();
  if (o) o->on_acquire({SyncPoint::Kind::kQueueMutex, this});
  if (queue_.empty()) {
    if (o) o->on_release({SyncPoint::Kind::kQueueMutex, this});
    return std::nullopt;
  }
  Message m = queue_.front();
  queue_.pop_front();
  if (o) {
    o->on_pop(m);
    o->on_release({SyncPoint::Kind::kQueueMutex, this});
  }
  trace_msg("pop", {trace::EntityType::kShmQueue, 0}, m);
  return m;
}

std::optional<Message> EventQueue::try_pop() {
  MutexLock lock(mutex_);
  ShmObserver* o = observer();
  if (o) o->on_acquire({SyncPoint::Kind::kQueueMutex, this});
  if (queue_.empty()) {
    if (o) o->on_release({SyncPoint::Kind::kQueueMutex, this});
    return std::nullopt;
  }
  Message m = queue_.front();
  queue_.pop_front();
  if (o) {
    o->on_pop(m);
    o->on_release({SyncPoint::Kind::kQueueMutex, this});
  }
  trace_msg("pop", {trace::EntityType::kShmQueue, 0}, m);
  return m;
}

bool EventQueue::pop_all(std::deque<Message>& out) {
  out.clear();
  {
    MutexLock lock(mutex_);
    while (queue_.empty() && !closed_) cv_.wait(mutex_);
    ShmObserver* o = observer();
    if (o) o->on_acquire({SyncPoint::Kind::kQueueMutex, this});
    out.swap(queue_);
    if (o) {
      for (const Message& m : out) o->on_pop(m);
      o->on_release({SyncPoint::Kind::kQueueMutex, this});
    }
  }
  for (const Message& m : out) {
    trace_msg("pop", {trace::EntityType::kShmQueue, 0}, m);
  }
  return !out.empty();
}

void EventQueue::close() {
  {
    MutexLock lock(mutex_);
    if (closed_) return;
    ShmObserver* o = observer();
    if (o) o->on_acquire({SyncPoint::Kind::kQueueMutex, this});
    closed_ = true;
    if (o) {
      o->on_close();
      o->on_release({SyncPoint::Kind::kQueueMutex, this});
    }
  }
  // Seeded lost-wakeup bug (tests/mc_test.cpp): forget to wake blocked
  // poppers. The model checker's cooperative wait model reads the same
  // flag and reports the resulting deadlock.
  if (test_hooks().skip_notify_on_close) return;
  cv_.notify_all();
}

bool EventQueue::closed() const {
  MutexLock lock(mutex_);
  return closed_;
}

std::size_t EventQueue::size() const {
  MutexLock lock(mutex_);
  return queue_.size();
}

std::uint64_t EventQueue::pushed() const {
  MutexLock lock(mutex_);
  return pushed_;
}

std::uint64_t EventQueue::dropped() const {
  MutexLock lock(mutex_);
  return dropped_;
}

}  // namespace dmr::shm
