#include "des/engine.hpp"

#include <cassert>

#include "des/process.hpp"

namespace dmr::des {

namespace {
#ifdef DMR_CHECK
thread_local DispatchHook t_dispatch_hook = nullptr;
thread_local void* t_dispatch_ctx = nullptr;
#endif
}  // namespace

void set_thread_dispatch_hook(DispatchHook hook, void* ctx) {
#ifdef DMR_CHECK
  t_dispatch_hook = hook;
  t_dispatch_ctx = ctx;
#else
  (void)hook;
  (void)ctx;
#endif
}

Engine::~Engine() {
  // Drain the queue without running anything.
  while (!queue_.empty()) {
    delete queue_.top();
    queue_.pop();
  }
  // Destroy all process frames the engine owns (done or suspended).
  for (auto h : owned_processes_) {
    if (h) h.destroy();
  }
}

void Engine::spawn(Process p) {
  auto h = p.release();
  assert(h && "spawn of empty process");
  owned_processes_.push_back(h);
  schedule_resume(h, now_);
}

void Engine::schedule_resume(std::coroutine_handle<> h, Time t) {
  assert(t >= now_ && "scheduling into the past");
  auto* ev = new Event{t, next_seq_++, h, {}, false};
  queue_.push(ev);
}

std::uint64_t Engine::schedule_callback(Time t, std::function<void()> fn) {
  assert(t >= now_ && "scheduling into the past");
  auto* ev = new Event{t, next_seq_++, nullptr, std::move(fn), false};
  queue_.push(ev);
  active_callbacks_.emplace(ev->seq, ev);
  return ev->seq;
}

void Engine::cancel(std::uint64_t id) {
  auto it = active_callbacks_.find(id);
  if (it == active_callbacks_.end()) return;
  it->second->cancelled = true;
  active_callbacks_.erase(it);
}

Engine::Event* Engine::pop_next() {
  while (!queue_.empty()) {
    Event* ev = queue_.top();
    queue_.pop();
    if (ev->cancelled) {
      delete ev;
      continue;
    }
    return ev;
  }
  return nullptr;
}

void Engine::dispatch(Event* ev) {
  assert(ev->t >= now_);
  now_ = ev->t;
  ++events_processed_;
#ifdef DMR_CHECK
  if (t_dispatch_hook) {
    t_dispatch_hook(t_dispatch_ctx, ev->t, ev->seq, !ev->handle);
  }
#endif
  if (ev->handle) {
    auto h = ev->handle;
    delete ev;
    h.resume();
  } else {
    auto fn = std::move(ev->callback);
    active_callbacks_.erase(ev->seq);
    delete ev;
    fn();
  }
}

Time Engine::run() {
  while (Event* ev = pop_next()) dispatch(ev);
  return now_;
}

Time Engine::run_until(Time t_end) {
  while (!queue_.empty()) {
    Event* ev = pop_next();
    if (!ev) break;
    if (ev->t > t_end) {
      // Put it back: simplest is to re-push (seq keeps ordering stable).
      queue_.push(ev);
      now_ = t_end;
      return now_;
    }
    dispatch(ev);
  }
  if (now_ < t_end) now_ = t_end;
  return now_;
}

}  // namespace dmr::des
