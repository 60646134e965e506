// Stateless-search DFS scheduler with sleep-set partial-order reduction.
//
// The Scheduler explores every inequivalent interleaving of a
// ShmScenario's VirtualThreads. It is *stateless* in the model-checking
// sense: no state snapshots — each explored schedule re-executes the
// scenario from a fresh Execution, following the recorded choice at
// every frame of the DFS stack and extending at the frontier. The shm
// layer is deterministic under a fixed schedule, which is what makes
// replay (and counterexample reproduction) exact.
//
// Reduction, in order of application at each scheduling point:
//  1. invisible ops (builder-asserted unobservable by other threads —
//     see virtual_thread.hpp) are executed immediately as forced
//     singleton ample sets; no branching;
//  2. sleep sets: after exploring thread t from state s, t "sleeps" in
//     every sibling branch until an op *dependent* with t's footprint
//     executes; scheduling a sleeping thread would only permute
//     independent ops, reaching an already-explored equivalence class.
//     A frontier whose every enabled thread sleeps is a pruned branch.
// Both keep at least one representative per Mazurkiewicz trace, so any
// safety violation (protocol FSM, race, invariant, deadlock) reachable
// under operation-level atomicity is found.
//
// After every step the engines are polled: check::ProtocolChecker
// violations, HbRaceDetector races, Execution errors and
// SharedBuffer::check_integrity(). A tripped run is *not* aborted
// mid-schedule: it runs to completion so the evidence materializes in
// full (a write-after-publish race needs the server's read to land
// before there is an unordered pair to report), then the whole
// violation set is gathered. A run with no enabled and unfinished
// threads is a deadlock (lost wakeup). Violating schedules are
// minimized — hill-climb adjacent swaps that reduce context switches,
// re-validating each candidate by replay — and packaged as a
// Counterexample.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mc/scenario.hpp"
#include "mc/virtual_thread.hpp"

namespace dmr::mc {

struct ModelOptions {
  /// Exploration budgets; whichever trips first sets budget_exhausted.
  std::uint64_t max_executions = 2'000'000;
  double time_budget_s = 55.0;
  /// Per-run step limit (a backstop against non-terminating programs).
  int max_steps = 10'000;
  /// Hill-climb the counterexample to fewer context switches.
  bool minimize = true;
};

/// One scheduling decision of a (counter)example schedule.
struct ScheduleStep {
  int tid = -1;
  const char* op = "?";  // static storage (Op::name)
  std::string thread;

  std::string to_string() const;
};

struct Counterexample {
  std::vector<ScheduleStep> schedule;
  std::vector<std::string> violations;  // checker + invariant messages
  std::vector<RaceReport> races;
  bool deadlock = false;
  std::string trace_path;  // Chrome trace of the replay, when exported

  /// Multi-line: the schedule, then every violation and race.
  std::string to_string() const;
};

struct McResult {
  std::uint64_t executions = 0;  // schedules fully or partially run
  std::uint64_t pruned = 0;      // runs cut by a fully-sleeping frontier
  std::uint64_t steps = 0;       // transitions executed overall
  bool complete = false;         // entire reduced space explored
  bool budget_exhausted = false;
  std::optional<Counterexample> cex;

  bool clean() const { return !cex.has_value(); }
  std::string summary() const;
};

class Scheduler {
 public:
  Scheduler(const ShmScenario& scenario, ModelOptions opts);

  /// Runs the DFS to completion, first violation, or budget.
  McResult explore();

  /// Replays a fixed thread-id schedule against a fresh Execution.
  /// Used by minimization, by tests asserting a schedule's outcome,
  /// and by the trace exporter.
  struct Replay {
    bool valid = false;     // every step was enabled when scheduled
    bool violated = false;  // any engine fired (deadlock included)
    bool deadlock = false;
    std::vector<ScheduleStep> schedule;  // as executed (may be truncated)
    std::vector<std::string> violations;
    std::vector<RaceReport> races;
  };
  Replay replay(const std::vector<int>& tids) const;

 private:
  struct SleepEntry {
    int tid = -1;
    Footprint foot;
  };

  /// One scheduling point of the DFS stack.
  struct Frame {
    std::vector<int> enabled;        // enabled thread ids at this state
    std::vector<Footprint> foots;    // their next-ops' footprints
    std::vector<char> tried;         // explored from this frame
    std::vector<SleepEntry> sleep;   // sleep set on entry
    int chosen = -1;                 // index into enabled
    bool forced = false;             // invisible singleton (no siblings)
  };

  struct RunOutcome {
    bool violated = false;
    bool pruned = false;
    bool deadlock = false;
    std::vector<ScheduleStep> schedule;
    std::vector<std::string> violations;
    std::vector<RaceReport> races;
  };

  /// Executes one schedule guided by frames_, extending at the frontier.
  RunOutcome run_one();
  /// Advances the deepest non-exhausted frame; false when the DFS is done.
  bool backtrack();

  /// Executes thread `tid`'s next op inside `exec`, updating thread
  /// state and the schedule. Returns false when the thread blocked
  /// (kBlocked) — the step still counts, like a wait that parks.
  void step_thread(Execution& exec, int tid, int step_index,
                   std::vector<ScheduleStep>* schedule) const;

  /// Enabled = not finished, not blocked, guard (if any) true.
  std::vector<int> enabled_threads(Execution& exec) const;

  /// Cheap per-step poll: did any engine fire so far? Captures the
  /// first allocator-integrity failure into `integrity_note` (the
  /// corruption can be transient, e.g. a wrapped partition counter).
  bool engines_tripped(Execution& exec, std::string* integrity_note) const;

  std::vector<int> minimized(const std::vector<int>& tids) const;

  const ShmScenario* scenario_;
  ModelOptions opts_;
  std::vector<Frame> frames_;
};

}  // namespace dmr::mc
