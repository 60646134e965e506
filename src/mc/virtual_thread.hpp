// Cooperative virtual threads for the interleaving model checker.
//
// A VirtualThread is a small program over shared-memory operations: a
// vector of Ops, each an atomic transition at the model's granularity
// (one EventQueue / SharedBuffer call — internally mutex-protected in
// the real code, so treating it as one step is sound for *ordering*
// bugs; races inside an operation are the sanitizer matrix's job).
// The Scheduler picks which runnable thread executes its next Op at
// every scheduling point and explores all such choices by DFS.
//
// Each Op declares:
//  - a guard: whether the op can run from the current state (a blocking
//    pop's guard is "queue non-empty or closed" — a disabled thread is
//    simply not scheduled, which models a blocking wait without
//    modeling wakeups; scenarios that *check* wakeups use an explicit
//    WaitChannel and return kBlocked instead);
//  - a footprint: which shared resources it may touch, evaluated
//    against the current state (the consumer's "release" op names the
//    partition of the block it actually holds). Footprints define the
//    independence relation of the sleep-set partial-order reduction;
//  - invisibility: the builder's assertion that no dependent transition
//    of another thread can execute before this one from any state where
//    it is enabled (a client's payload write to a block it has not yet
//    published). Invisible ops are executed immediately without
//    branching — a singleton ample set.
//
// Thread-safety: none needed; the model checker is single-threaded by
// construction (that is the point).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "trace/event.hpp"

namespace dmr::mc {

class Execution;

/// Which shared resources an operation may touch. kNone = does not
/// touch that resource class; kAny = may touch any instance (wildcard,
/// conservatively dependent with every op of the same class).
struct Footprint {
  static constexpr int kNone = -1;
  static constexpr int kAny = -2;

  int queue = kNone;      // event-queue index
  int partition = kNone;  // allocator domain (client id; first-fit: kAny)
  int payload = kNone;    // symbolic block tag (see ShmScenario::tag)
  bool payload_write = false;
};

/// Two ops are independent iff executing them in either order from the
/// same state yields the same state and neither affects the other's
/// enabledness — approximated by disjoint footprints. Payload accesses
/// conflict only when at least one writes (read-read commutes).
inline bool dependent(const Footprint& a, const Footprint& b) {
  auto same = [](int x, int y) {
    return x != Footprint::kNone && y != Footprint::kNone &&
           (x == Footprint::kAny || y == Footprint::kAny || x == y);
  };
  if (same(a.queue, b.queue)) return true;
  if (same(a.partition, b.partition)) return true;
  if (same(a.payload, b.payload) && (a.payload_write || b.payload_write)) {
    return true;
  }
  return false;
}

/// Outcome of running one Op.
struct StepResult {
  enum class Kind {
    kAdvance,  // op done; move to the next op
    kJump,     // op done; continue at program[jump_to]
    kBlocked,  // op checked its predicate and went to sleep on a
               // WaitChannel (the queue's park); pc unchanged
    kFinish,   // thread done
  };
  Kind kind = Kind::kAdvance;
  int jump_to = -1;

  static StepResult advance() { return {Kind::kAdvance, -1}; }
  static StepResult jump(int pc) { return {Kind::kJump, pc}; }
  static StepResult blocked() { return {Kind::kBlocked, -1}; }
  static StepResult finish() { return {Kind::kFinish, -1}; }
};

struct Op {
  const char* name = "?";  // static storage: reused in trace exports
  bool invisible = false;
  /// May this op run from the current state? Must be side-effect free.
  /// Default: always runnable.
  std::function<bool(Execution&)> guard;
  /// Footprint against the current state. Must be side-effect free and
  /// stable while this thread does not move. Default: empty footprint.
  std::function<Footprint(Execution&)> foot;
  /// Executes the op. Runs with the Scheduler's current-thread context
  /// already pointing at this thread.
  std::function<StepResult(Execution&)> run;
};

struct VirtualThread {
  int id = -1;
  std::string name;
  trace::EntityId lane;  // lane in exported counterexample traces
  std::vector<Op> program;
};

}  // namespace dmr::mc
