// Simulated processes as C++20 coroutines.
//
// A process is a coroutine of type Process. It receives the Engine (and
// any model objects) as ordinary parameters and suspends via awaitables:
//
//   Process rank(Engine& eng, Node& node) {
//     co_await eng.delay(compute_time);
//     co_await node.nic().transfer(bytes);
//   }
//
// Processes are fire-and-forget: Engine::spawn() takes ownership of the
// coroutine frame and destroys it when the engine is destroyed (whether
// or not the process ran to completion). Exceptions escaping a process
// terminate the program — simulation models report errors through their
// results, not by throwing across resume boundaries.
#pragma once

#include <coroutine>
#include <exception>
#include <utility>


namespace dmr::des {

class Engine;

class Process {
 public:
  struct promise_type {
    Process get_return_object() {
      return Process(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() { std::terminate(); }
  };

  Process() = default;
  explicit Process(std::coroutine_handle<promise_type> h) : handle_(h) {}

  Process(Process&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)) {}
  Process& operator=(Process&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  ~Process() { destroy(); }

  /// Releases ownership of the handle (used by Engine::spawn).
  std::coroutine_handle<promise_type> release() {
    return std::exchange(handle_, nullptr);
  }

  bool valid() const { return handle_ != nullptr; }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

}  // namespace dmr::des
