#include "mc/scheduler.hpp"

#include <algorithm>
#include <sstream>

#include "common/clock.hpp"

namespace dmr::mc {

namespace {

/// Human-readable account of why nothing is runnable.
std::string deadlock_message(const ShmScenario& scenario, Execution& exec) {
  std::ostringstream os;
  os << "deadlock: no thread runnable;";
  for (const VirtualThread& t : scenario.threads()) {
    const auto& st = exec.state(t.id);
    if (st.finished) continue;
    os << " " << t.name << " ";
    if (st.blocked) {
      os << "asleep in '" << t.program[st.pc].name
         << "' (lost wakeup: nobody notified)";
    } else {
      os << "disabled at '" << t.program[st.pc].name << "'";
    }
    os << ";";
  }
  return os.str();
}

int context_switches(const std::vector<int>& tids) {
  int n = 0;
  for (std::size_t i = 1; i < tids.size(); ++i) {
    if (tids[i] != tids[i - 1]) ++n;
  }
  return n;
}

}  // namespace

std::string ScheduleStep::to_string() const {
  return thread + ":" + op;
}

std::string Counterexample::to_string() const {
  std::ostringstream os;
  os << "schedule (" << schedule.size() << " steps, "
     << [this] {
          std::vector<int> tids;
          tids.reserve(schedule.size());
          for (const auto& s : schedule) tids.push_back(s.tid);
          return context_switches(tids);
        }()
     << " context switches):\n";
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    os << "  " << i << ": " << schedule[i].to_string() << "\n";
  }
  if (deadlock) os << "outcome: deadlock\n";
  for (const auto& v : violations) os << "violation: " << v << "\n";
  for (const auto& r : races) os << "race: " << r.to_string() << "\n";
  if (!trace_path.empty()) os << "trace: " << trace_path << "\n";
  return os.str();
}

std::string McResult::summary() const {
  std::ostringstream os;
  os << executions << " schedule(s), " << steps << " step(s), " << pruned
     << " sleep-pruned";
  if (cex) {
    os << "; VIOLATION after " << cex->schedule.size() << " step(s)";
  } else if (complete) {
    os << "; state space exhausted, no violation";
  } else if (budget_exhausted) {
    os << "; budget exhausted, no violation found";
  }
  return os.str();
}

Scheduler::Scheduler(const ShmScenario& scenario, ModelOptions opts)
    : scenario_(&scenario), opts_(opts) {}

std::vector<int> Scheduler::enabled_threads(Execution& exec) const {
  std::vector<int> enabled;
  for (const VirtualThread& t : scenario_->threads()) {
    const auto& st = exec.state(t.id);
    if (st.finished || st.blocked) continue;
    const Op& op = t.program[st.pc];
    if (op.guard) {
      exec.set_current(t.id);
      if (!op.guard(exec)) continue;
    }
    enabled.push_back(t.id);
  }
  return enabled;
}

void Scheduler::step_thread(Execution& exec, int tid, int step_index,
                            std::vector<ScheduleStep>* schedule) const {
  const VirtualThread& th = scenario_->threads()[tid];
  auto& st = exec.state(tid);
  const Op& op = th.program[st.pc];
  exec.set_current(tid);
  exec.detector().set_current_thread(tid);
  exec.detector().set_context(op.name, step_index);
  if (schedule) schedule->push_back(ScheduleStep{tid, op.name, th.name});
  const StepResult r = op.run(exec);
  switch (r.kind) {
    case StepResult::Kind::kAdvance:
      ++st.pc;
      break;
    case StepResult::Kind::kJump:
      st.pc = r.jump_to;
      break;
    case StepResult::Kind::kBlocked:
      break;  // pc unchanged: the op re-runs after a notify
    case StepResult::Kind::kFinish:
      st.finished = true;
      break;
  }
  if (!st.finished && st.pc >= static_cast<int>(th.program.size())) {
    st.finished = true;
  }
}

bool Scheduler::engines_tripped(Execution& exec,
                                std::string* integrity_note) const {
  bool any = exec.checker().violation_count() > 0 ||
             exec.detector().race_count() > 0 || !exec.errors().empty();
  if (Status s = exec.buffer().check_integrity(); !s.is_ok()) {
    if (integrity_note->empty()) {
      *integrity_note = "allocator integrity: " + s.to_string();
    }
    any = true;
  }
  return any;
}

Scheduler::RunOutcome Scheduler::run_one() {
  RunOutcome out;
  Execution exec(*scenario_);
  const auto& threads = scenario_->threads();
  std::size_t depth = 0;
  std::string integrity_note;
  bool tripped = false;
  bool limit_hit = false;
  bool stalled = false;  // no thread enabled

  while (true) {
    if (static_cast<int>(out.schedule.size()) >= opts_.max_steps) {
      out.violations.push_back("per-run step limit (" +
                               std::to_string(opts_.max_steps) +
                               ") exceeded: scenario may not terminate");
      limit_hit = true;
      tripped = true;
      break;
    }

    const std::vector<int> enabled = enabled_threads(exec);
    if (enabled.empty()) {
      stalled = true;
      break;
    }

    int tid;
    if (depth < frames_.size()) {
      // Replaying the prefix fixed by earlier runs: the scenario is
      // deterministic, so the recorded choice is enabled again.
      const Frame& f = frames_[depth];
      tid = f.enabled[static_cast<std::size_t>(f.chosen)];
    } else {
      Frame f;
      f.enabled = enabled;
      f.foots.reserve(enabled.size());
      for (int t : enabled) {
        const Op& op = threads[t].program[exec.state(t).pc];
        f.foots.push_back(op.foot ? op.foot(exec) : Footprint{});
      }
      f.tried.assign(enabled.size(), 0);

      // Sleep set on entry: parent's sleepers and explored siblings
      // survive unless dependent with the op the parent just ran.
      if (!frames_.empty()) {
        const Frame& par = frames_.back();
        if (par.forced) {
          f.sleep = par.sleep;  // invisible: independent of everything
        } else {
          const Footprint& ran = par.foots[static_cast<std::size_t>(par.chosen)];
          for (const SleepEntry& e : par.sleep) {
            if (!dependent(e.foot, ran)) f.sleep.push_back(e);
          }
          for (std::size_t i = 0; i < par.enabled.size(); ++i) {
            if (!par.tried[i] || static_cast<int>(i) == par.chosen) continue;
            if (!dependent(par.foots[i], ran)) {
              f.sleep.push_back(SleepEntry{par.enabled[i], par.foots[i]});
            }
          }
        }
      }

      // Invisible ops first: a forced singleton ample set.
      int pick = -1;
      for (std::size_t i = 0; i < f.enabled.size(); ++i) {
        const int t = f.enabled[i];
        if (threads[t].program[exec.state(t).pc].invisible) {
          pick = static_cast<int>(i);
          f.forced = true;
          break;
        }
      }
      if (pick < 0) {
        for (std::size_t i = 0; i < f.enabled.size(); ++i) {
          const int t = f.enabled[i];
          const bool sleeping =
              std::any_of(f.sleep.begin(), f.sleep.end(),
                          [t](const SleepEntry& e) { return e.tid == t; });
          if (!sleeping) {
            pick = static_cast<int>(i);
            break;
          }
        }
      }
      if (pick < 0) {
        if (tripped) {
          // The run already has a violation; finish it to materialize
          // the full evidence rather than pruning it away (exploration
          // stops at this counterexample anyway).
          pick = 0;
          f.forced = true;
        } else {
          // Every enabled thread sleeps: any continuation permutes
          // independent ops of an already-explored trace.
          out.pruned = true;
          return out;
        }
      }
      f.chosen = pick;
      tid = f.enabled[static_cast<std::size_t>(pick)];
      frames_.push_back(std::move(f));
    }

    step_thread(exec, tid, static_cast<int>(out.schedule.size()),
                &out.schedule);
    ++depth;
    tripped = engines_tripped(exec, &integrity_note) || tripped;
  }

  // End of run: deadlock / leak analysis, then gather all evidence.
  bool unfinished = false;
  for (const auto& st : exec.states()) {
    if (!st.finished) unfinished = true;
  }
  std::vector<check::Violation> checker_violations;
  if (!unfinished) {
    checker_violations = exec.checker().finalize();  // adds leak checks
  } else {
    if (stalled) {
      out.deadlock = true;
      tripped = true;
      out.violations.push_back(deadlock_message(*scenario_, exec));
    }
    checker_violations = exec.checker().violations();
  }
  (void)limit_hit;
  if (!checker_violations.empty()) tripped = true;
  if (!tripped) return out;

  out.violated = true;
  for (const auto& v : checker_violations) out.violations.push_back(v.to_string());
  for (const auto& r : exec.detector().races()) out.races.push_back(r);
  for (const auto& e : exec.errors()) out.violations.push_back(e);
  if (!integrity_note.empty()) out.violations.push_back(integrity_note);
  return out;
}

bool Scheduler::backtrack() {
  while (!frames_.empty()) {
    Frame& f = frames_.back();
    if (f.forced) {
      frames_.pop_back();
      continue;
    }
    f.tried[static_cast<std::size_t>(f.chosen)] = 1;
    int next = -1;
    for (std::size_t i = 0; i < f.enabled.size(); ++i) {
      if (f.tried[i]) continue;
      const int t = f.enabled[i];
      const bool sleeping =
          std::any_of(f.sleep.begin(), f.sleep.end(),
                      [t](const SleepEntry& e) { return e.tid == t; });
      if (!sleeping) {
        next = static_cast<int>(i);
        break;
      }
    }
    if (next < 0) {
      frames_.pop_back();
      continue;
    }
    f.chosen = next;
    return true;
  }
  return false;
}

Scheduler::Replay Scheduler::replay(const std::vector<int>& tids) const {
  Replay rep;
  Execution exec(*scenario_);
  std::string integrity_note;
  bool tripped = false;
  for (int tid : tids) {
    const std::vector<int> enabled = enabled_threads(exec);
    if (std::find(enabled.begin(), enabled.end(), tid) == enabled.end()) {
      return rep;  // invalid: the schedule diverged
    }
    step_thread(exec, tid, static_cast<int>(rep.schedule.size()),
                &rep.schedule);
    tripped = engines_tripped(exec, &integrity_note) || tripped;
  }
  rep.valid = true;
  const std::vector<int> enabled = enabled_threads(exec);
  bool unfinished = false;
  for (const auto& st : exec.states()) {
    if (!st.finished) unfinished = true;
  }
  std::vector<check::Violation> checker_violations;
  if (!unfinished) {
    checker_violations = exec.checker().finalize();
  } else {
    if (enabled.empty()) {
      rep.deadlock = true;
      tripped = true;
      rep.violations.push_back(deadlock_message(*scenario_, exec));
    }
    checker_violations = exec.checker().violations();
  }
  if (!checker_violations.empty()) tripped = true;
  if (!tripped) return rep;

  rep.violated = true;
  for (const auto& v : checker_violations) rep.violations.push_back(v.to_string());
  for (const auto& r : exec.detector().races()) rep.races.push_back(r);
  for (const auto& e : exec.errors()) rep.violations.push_back(e);
  if (!integrity_note.empty()) rep.violations.push_back(integrity_note);
  return rep;
}

std::vector<int> Scheduler::minimized(const std::vector<int>& tids0) const {
  // Truncate to what a replay actually needs to reach the violation.
  std::vector<int> best;
  {
    Replay r = replay(tids0);
    if (!r.valid || !r.violated) return tids0;
    best.reserve(r.schedule.size());
    for (const auto& s : r.schedule) best.push_back(s.tid);
  }
  // Hill-climb adjacent swaps that reduce context switches, keeping
  // only candidates whose replay still violates.
  bool improved = true;
  for (int round = 0; improved && round < 8; ++round) {
    improved = false;
    for (std::size_t i = 0; i + 1 < best.size(); ++i) {
      if (best[i] == best[i + 1]) continue;
      std::vector<int> cand = best;
      std::swap(cand[i], cand[i + 1]);
      if (context_switches(cand) >= context_switches(best)) continue;
      Replay r = replay(cand);
      if (!r.valid || !r.violated) continue;
      cand.clear();
      for (const auto& s : r.schedule) cand.push_back(s.tid);
      best = std::move(cand);
      improved = true;
    }
  }
  return best;
}

McResult Scheduler::explore() {
  McResult res;
  frames_.clear();
  const auto t0 = WallClock::now();

  while (true) {
    RunOutcome run = run_one();
    ++res.executions;
    res.steps += run.schedule.size();
    if (run.pruned) ++res.pruned;

    if (run.violated) {
      Counterexample cex;
      cex.schedule = std::move(run.schedule);
      cex.violations = std::move(run.violations);
      cex.races = std::move(run.races);
      cex.deadlock = run.deadlock;
      if (opts_.minimize) {
        std::vector<int> tids;
        tids.reserve(cex.schedule.size());
        for (const auto& s : cex.schedule) tids.push_back(s.tid);
        const std::vector<int> min_tids = minimized(tids);
        Replay rep = replay(min_tids);
        if (rep.valid && rep.violated) {
          cex.schedule = std::move(rep.schedule);
          cex.violations = std::move(rep.violations);
          cex.races = std::move(rep.races);
          cex.deadlock = rep.deadlock;
        }
      }
      res.cex = std::move(cex);
      return res;
    }

    const double elapsed = seconds_since(t0);
    if (res.executions >= opts_.max_executions ||
        elapsed > opts_.time_budget_s) {
      res.budget_exhausted = true;
      return res;
    }
    if (!backtrack()) {
      res.complete = true;
      return res;
    }
  }
}

}  // namespace dmr::mc
