#include "des/engine.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "des/process.hpp"

namespace dmr::des {

namespace {
#ifdef DMR_CHECK
thread_local DispatchHook t_dispatch_hook = nullptr;
thread_local void* t_dispatch_ctx = nullptr;
#endif

// Near-heap shape. The heap spills its later half to the far tier when
// it outgrows kNearCap entries (24 KiB: L1/L2 resident); a refill moves
// the earliest 1/kRefillDivisor of the far tier in, at least
// kRefillMin entries, so the O(far) selection is amortised over that
// many pops.
constexpr std::size_t kArity = 4;
constexpr std::size_t kNearCap = 1024;
constexpr std::size_t kRefillDivisor = 8;
constexpr std::size_t kRefillMin = 64;
constexpr std::size_t kFifoInitial = 64;

constexpr std::uint64_t kCallbackTag = 1;
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

// ------------------------------------------------------------------ queue

void Engine::Queue::push(const Entry& e, bool at_now) {
  if (at_now) {
    fifo_push(e);
  } else if (e.key() < horizon_) {
    heap_.push_back(e);
    sift_up(heap_.size() - 1, e);
    if (heap_.size() > kNearCap) spill();
  } else {
    far_.push_back(e);
  }
}

const Engine::Entry* Engine::Queue::front() {
  for (;;) {
    if (fifo_size_ != 0) {
      const Entry& f = fifo_[fifo_head_];
      // An older event at the same instant may sit in the heap.
      if (!heap_.empty() && heap_[0].key() < f.key()) {
        front_in_fifo_ = false;
        return heap_.data();
      }
      // Far keys at the current instant precede the FIFO's: refill first.
      if (f.key() < horizon_) {
        front_in_fifo_ = true;
        return &f;
      }
    } else if (!heap_.empty()) {
      front_in_fifo_ = false;
      return heap_.data();
    } else if (far_.empty()) {
      return nullptr;
    }
    refill();
  }
}

void Engine::Queue::pop_front() {
  if (front_in_fifo_) {
    fifo_head_ = (fifo_head_ + 1) & (fifo_.size() - 1);
    --fifo_size_;
  } else {
    heap_pop();
  }
}

void Engine::Queue::fifo_push(const Entry& e) {
  if (fifo_size_ == fifo_.size()) {
    // Grow and unwrap: the entries move to [0, size) in order.
    std::vector<Entry> grown(std::max(kFifoInitial, 2 * fifo_.size()));
    for (std::size_t i = 0; i < fifo_size_; ++i) {
      grown[i] = fifo_[(fifo_head_ + i) & (fifo_.size() - 1)];
    }
    fifo_.swap(grown);
    fifo_head_ = 0;
  }
  fifo_[(fifo_head_ + fifo_size_) & (fifo_.size() - 1)] = e;
  ++fifo_size_;
}

void Engine::Queue::sift_up(std::size_t i, Entry e) {
  const OrderKey k = e.key();
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!(k < heap_[parent].key())) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Engine::Queue::sift_up_from(std::size_t first) {
  for (std::size_t i = first; i < heap_.size(); ++i) sift_up(i, heap_[i]);
}

void Engine::Queue::heap_pop() {
  const Entry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  // Walk the hole at the root down to a leaf along the smallest children,
  // then sift the old last entry up from there (Floyd): no per-level
  // "stop here?" branch on the way down.
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + kArity, n);
    std::size_t best = first;
    OrderKey best_key = heap_[first].key();
    for (std::size_t c = first + 1; c < end; ++c) {
      const OrderKey k = heap_[c].key();
      if (k < best_key) {
        best = c;
        best_key = k;
      }
    }
    heap_[i] = heap_[best];
    i = best;
  }
  sift_up(i, last);
}

void Engine::Queue::spill() {
  // The later half becomes far; its smallest key is the new horizon.
  const auto mid = heap_.begin() + static_cast<std::ptrdiff_t>(heap_.size() / 2);
  std::nth_element(heap_.begin(), mid, heap_.end());
  horizon_ = mid->key();
  far_.insert(far_.end(), mid, heap_.end());
  heap_.erase(mid, heap_.end());
  sift_up_from(1);
}

void Engine::Queue::refill() {
  const std::size_t old_size = heap_.size();
  const std::size_t n = std::max(kRefillMin, far_.size() / kRefillDivisor);
  if (n >= far_.size()) {
    heap_.insert(heap_.end(), far_.begin(), far_.end());
    far_.clear();
    horizon_ = ~OrderKey{0};
  } else {
    const auto cut = far_.begin() + static_cast<std::ptrdiff_t>(n);
    std::nth_element(far_.begin(), cut, far_.end());
    horizon_ = cut->key();
    heap_.insert(heap_.end(), far_.begin(), cut);
    far_.erase(far_.begin(), cut);
  }
  sift_up_from(old_size);
}

// ----------------------------------------------------------------- engine

Engine::~Engine() {
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

void Engine::push(Time t, std::uint64_t payload) {
  assert(std::isfinite(t) && "scheduling at a non-finite time");
  assert(t >= now_ && "scheduling into the past");
  queue_.push(Entry{order_bits(t), next_seq_++, payload}, t == now_);
}

void Engine::schedule_resume(std::coroutine_handle<> h, Time t) {
  const auto frame = reinterpret_cast<std::uintptr_t>(h.address());
  assert((frame & kCallbackTag) == 0);
  push(t, frame);
}

std::uint64_t Engine::schedule_callback(Time t, std::function<void()> fn) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    assert(slot < (std::uint32_t{1} << 31) && "callback slots exhausted");
    slots_.emplace_back();
  }
  CallbackSlot& s = slots_[slot];
  s.fn = std::move(fn);
  const std::uint64_t gen = ++s.gen;
  push(t, (gen << 32) | (std::uint64_t{slot} << 1) | kCallbackTag);
  return (gen << 32) | slot;
}

void Engine::cancel(std::uint64_t id) {
  const auto slot = static_cast<std::uint32_t>(id);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if ((gen & 1) == 0 || slot >= slots_.size() || slots_[slot].gen != gen) {
    return;
  }
  CallbackSlot& s = slots_[slot];
  s.fn = nullptr;
  ++s.gen;
  free_slots_.push_back(slot);
}

const Engine::Entry* Engine::next_live() {
  while (const Entry* e = queue_.front()) {
    if ((e->payload & kCallbackTag) == 0 ||
        slots_[static_cast<std::uint32_t>(e->payload) >> 1].gen ==
            static_cast<std::uint32_t>(e->payload >> 32)) {
      return e;
    }
    queue_.pop_front();  // a cancelled callback
  }
  return nullptr;
}

void Engine::dispatch(const Entry& ev) {
  const Time t = from_order_bits(ev.t);
  assert(t >= now_);
  now_ = t;
  ++events_processed_;
  const bool is_callback = (ev.payload & kCallbackTag) != 0;
#ifdef DMR_CHECK
  if (t_dispatch_hook) t_dispatch_hook(t_dispatch_ctx, t, ev.seq, is_callback);
#endif
  if (!is_callback) {
    std::coroutine_handle<>::from_address(
        reinterpret_cast<void*>(static_cast<std::uintptr_t>(ev.payload)))
        .resume();
    return;
  }
  // Free the slot before the call: the callback may schedule (and so
  // reuse the slot or grow the pool) or cancel its own, now stale, id.
  const auto slot = static_cast<std::uint32_t>(ev.payload) >> 1;
  std::function<void()> fn;
  fn.swap(slots_[slot].fn);
  ++slots_[slot].gen;
  free_slots_.push_back(slot);
  fn();
}

Time Engine::run() {
  while (const Entry* e = next_live()) {
    const Entry ev = *e;
    queue_.pop_front();
    dispatch(ev);
  }
  return now_;
}

Time Engine::run_until(Time t_end) {
  // Simulated time never runs backwards.
  if (t_end < now_) return now_;
  while (const Entry* e = next_live()) {
    if (from_order_bits(e->t) > t_end) {
      now_ = t_end;
      return now_;
    }
    const Entry ev = *e;
    queue_.pop_front();
    dispatch(ev);
  }
  if (now_ < t_end) now_ = t_end;
  return now_;
}

}  // namespace dmr::des
