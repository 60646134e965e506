// Producer/consumer scenarios over the real shm layer, expressed as
// VirtualThread programs for the model checker.
//
// A ShmScenario builds the paper's §III-B handoff — P clients each
// performing H handoffs (allocate -> write -> publish) against one
// consumer (pop -> read -> release), plus a close/drain tail — as
// programs whose every operation calls the *production*
// shm::EventQueue / shm::SharedBuffer code. An Execution instantiates
// fresh state (queue, buffer, protocol checker, race detector) for one
// run; the Scheduler replays thousands of Executions, one per explored
// interleaving.
//
// Two models of a blocking pop:
//  - guarded (default): a blocking pop is modeled by disabling the
//    consumer while the queue is not ready (EventQueue::ready()). Sound
//    for all safety properties and much smaller state spaces.
//  - wait-channel (model_waiting = true): the queue's sleep handshake,
//    step by step, on the production EventQueue calls. The consumer
//    announces that it is going to sleep, re-checks ready(), then
//    parks (blocked while asleep()); each producer publish is an
//    enqueue transition followed by a separate wake transition (the
//    fence and the read of the announcement). A parked consumer runs
//    again only when a wake or close clears the announcement — the
//    model that detects lost wakeups
//    (shm::TestHooks::skip_notify_on_close, park_without_recheck).
//
// Mutations (shm::test_hooks() flags + ScenarioOptions mirrors) seed
// the classic handoff bugs; tests/mc_test.cpp asserts the engines
// catch each one.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "check/protocol_checker.hpp"
#include "common/units.hpp"
#include "mc/race_detector.hpp"
#include "mc/virtual_thread.hpp"
#include "shm/event_queue.hpp"
#include "shm/shared_buffer.hpp"

namespace dmr::mc {

struct ScenarioOptions {
  int producers = 2;
  int handoffs = 3;  // allocate/write/publish triples per producer
  shm::AllocPolicy policy = shm::AllocPolicy::kPartitioned;
  Bytes block_size = 64;
  /// 0 = auto (producers * handoffs * block_size — tight but always
  /// sufficient for equal-size blocks).
  Bytes capacity = 0;

  enum class CloseBy {
    kConsumer,      // consumer closes after receiving every handoff
    kProducerLast,  // the last producer closes after its own pushes
    kNobody,        // queue stays open; consumer stops at the expected count
  };
  CloseBy close_by = CloseBy::kConsumer;

  /// Model the sleep handshake explicitly (required to detect lost
  /// wakeups; larger state space).
  bool model_waiting = false;

  // Seeded bugs (see shm/test_hooks.hpp). The model-checker facade
  // installs the matching shm::test_hooks() flags for the exploration.
  bool mutate_double_release = false;
  bool mutate_write_after_publish = false;
  bool mutate_skip_close_notify = false;
  bool mutate_park_without_recheck = false;

  int expected_messages() const { return producers * handoffs; }
  bool any_mutation() const {
    return mutate_double_release || mutate_write_after_publish ||
           mutate_skip_close_notify || mutate_park_without_recheck;
  }
  std::string to_string() const;
};

class ShmScenario {
 public:
  static ShmScenario build(const ScenarioOptions& opts);

  const ScenarioOptions& options() const { return opts_; }
  const std::vector<VirtualThread>& threads() const { return threads_; }

  /// Symbolic payload tag of producer `p`'s handoff `h` (footprint
  /// identity for the independence relation).
  static int tag(int p, int h) { return p * 1024 + h + 1; }

  /// Deterministic payload fill byte for (client, iteration).
  static std::byte fill_byte(int client, std::int64_t iteration) {
    return static_cast<std::byte>((client * 31 + iteration * 7 + 1) & 0xFF);
  }

 private:
  ScenarioOptions opts_;
  std::vector<VirtualThread> threads_;
};

/// Mutable state of one model-checked run: the real shm objects, both
/// analysis engines, per-thread runtime, and scenario bookkeeping.
class Execution {
 public:
  explicit Execution(const ShmScenario& scenario);

  struct ThreadState {
    int pc = 0;
    bool finished = false;
    bool blocked = false;
    shm::Block cur_block{};   // producer: block of the handoff in flight
    shm::Message cur_msg{};   // consumer: message being processed
  };

  shm::EventQueue& queue() { return queue_; }
  shm::SharedBuffer& buffer() { return *buffer_; }
  check::ProtocolChecker& checker() { return checker_; }
  HbRaceDetector& detector() { return detector_; }
  const ShmScenario& scenario() const { return *scenario_; }

  ThreadState& state(int tid) { return states_[tid]; }
  const std::vector<ThreadState>& states() const { return states_; }

  void set_current(int tid) { current_ = tid; }
  int current() const { return current_; }

  /// Registers the current thread as parked on the queue's sleep
  /// announcement (wait-channel mode) and marks it blocked.
  void block_current_on_queue();
  /// Wakes every thread parked on the queue (a wake that cleared the
  /// announcement, close's unconditional wake unless mutated).
  void notify_queue();

  /// Records an invariant violation observed by scenario code (FIFO
  /// order, payload corruption, unexpected allocation failure).
  void error(std::string msg) { errors_.push_back(std::move(msg)); }
  const std::vector<std::string>& errors() const { return errors_; }

  // Consumer bookkeeping.
  int received = 0;
  std::map<int, std::int64_t> last_iteration;  // per-client FIFO check

 private:
  /// Forwards every hook to both engines (ShmObserver allows a single
  /// observer per object).
  class MuxObserver : public shm::ShmObserver {
   public:
    MuxObserver(check::ProtocolChecker& checker, HbRaceDetector& detector)
        : checker_(checker), detector_(detector) {}
    void on_allocate(const shm::Block& b) override {
      checker_.on_allocate(b);
      detector_.on_allocate(b);
    }
    void on_write(const shm::Block& b) override {
      checker_.on_write(b);
      detector_.on_write(b);
    }
    void on_read(const shm::Block& b) override {
      checker_.on_read(b);
      detector_.on_read(b);
    }
    void on_deallocate(const shm::Block& b) override {
      checker_.on_deallocate(b);
      detector_.on_deallocate(b);
    }
    void on_push(const shm::Message& m, bool accepted) override {
      checker_.on_push(m, accepted);
      detector_.on_push(m, accepted);
    }
    void on_pop(const shm::Message& m) override {
      checker_.on_pop(m);
      detector_.on_pop(m);
    }
    void on_close() override {
      checker_.on_close();
      detector_.on_close();
    }
    void on_acquire(const shm::SyncPoint& s) override {
      checker_.on_acquire(s);
      detector_.on_acquire(s);
    }
    void on_release(const shm::SyncPoint& s) override {
      checker_.on_release(s);
      detector_.on_release(s);
    }

   private:
    check::ProtocolChecker& checker_;
    HbRaceDetector& detector_;
  };

  const ShmScenario* scenario_;
  shm::EventQueue queue_;
  std::unique_ptr<shm::SharedBuffer> buffer_;
  check::ProtocolChecker checker_;
  HbRaceDetector detector_;
  MuxObserver mux_;
  std::vector<ThreadState> states_;
  std::vector<int> queue_waiters_;
  std::vector<std::string> errors_;
  int current_ = -1;
};

}  // namespace dmr::mc
