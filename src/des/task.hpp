// Lazy awaitable tasks for composing simulated operations.
//
// A Task<T> is a coroutine that a process (or another task) co_awaits:
//
//   Task<double> SimFs::write(...) { co_await disk.serve(n); co_return t; }
//   Process rank(...) { double t = co_await fs.write(...); }
//
// Tasks are lazy (they start on first co_await) and resume their awaiter
// by symmetric transfer when they complete. A task must be awaited at
// most once; the temporary created in `co_await fs.write(...)` lives for
// the whole suspension (full-expression rule), so no extra bookkeeping
// is needed at call sites.
#pragma once

#include <cassert>
#include <coroutine>
#include <exception>
#include <optional>
#include <utility>


namespace dmr::des {

template <typename T = void>
class Task;

namespace detail {

template <typename T>
struct TaskPromiseBase {
  std::coroutine_handle<> continuation;

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() { std::terminate(); }
};

}  // namespace detail

template <typename T>
class Task {
 public:
  struct promise_type : detail::TaskPromiseBase<T> {
    std::optional<T> result;
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_value(T v) { result.emplace(std::move(v)); }
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Task(Task&& o) noexcept : handle_(std::exchange(o.handle_, nullptr)) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      handle_ = std::exchange(o.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) {
    handle_.promise().continuation = awaiter;
    return handle_;  // start the task now (symmetric transfer)
  }
  T await_resume() {
    assert(handle_.promise().result.has_value());
    return std::move(*handle_.promise().result);
  }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }
  std::coroutine_handle<promise_type> handle_;
};

template <>
class Task<void> {
 public:
  struct promise_type : detail::TaskPromiseBase<void> {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() noexcept {}
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Task(Task&& o) noexcept : handle_(std::exchange(o.handle_, nullptr)) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      handle_ = std::exchange(o.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) {
    handle_.promise().continuation = awaiter;
    return handle_;
  }
  void await_resume() noexcept {}

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
