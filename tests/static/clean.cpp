// Positive control: idiomatic use of the annotated lock types MUST
// compile warning-free under -Wthread-safety -Werror. If this fails,
// the harness (not the tree) is broken.
#include "common/thread_annotations.hpp"

#include <deque>

class Channel {
 public:
  void push(int v) {
    dmr::MutexLock lock(mutex_);
    items_.push_back(v);
  }

  int pop() {
    dmr::MutexLock lock(mutex_);
    const int v = items_.front();
    items_.pop_front();
    return v;
  }

  int size_locked() const DMR_REQUIRES(mutex_) {
    return static_cast<int>(items_.size());
  }

  int size() const {
    dmr::MutexLock lock(mutex_);
    return size_locked();
  }

 private:
  mutable dmr::Mutex mutex_;
  std::deque<int> items_ DMR_GUARDED_BY(mutex_);
};

class Counter {
 public:
  void add(int n) {
    dmr::SpinMutexLock lock(mutex_);
    value_ += n;
  }

  int value_locked() const DMR_REQUIRES(mutex_) { return value_; }

  int value() const {
    dmr::SpinMutexLock lock(mutex_);
    return value_locked();
  }

 private:
  mutable dmr::SpinMutex mutex_;
  int value_ DMR_GUARDED_BY(mutex_) = 0;
};

int main() {
  Channel ch;
  ch.push(1);
  Counter counter;
  counter.add(2);
  return ch.pop() == 1 && ch.size() == 0 && counter.value() == 2 ? 0 : 1;
}
