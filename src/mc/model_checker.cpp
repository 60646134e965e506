#include "mc/model_checker.hpp"

#include <fstream>

#include "shm/test_hooks.hpp"
#include "trace/chrome_export.hpp"
#include "trace/event.hpp"

namespace dmr::mc {

namespace {

/// Replays the counterexample and renders it as a Chrome trace: one
/// lane per virtual thread, one microsecond per scheduler step, the
/// violation as an instant on the last-scheduled thread's lane.
void export_counterexample(const ShmScenario& scenario,
                           const Scheduler& scheduler, Counterexample* cex,
                           const std::string& path) {
  std::vector<trace::TraceEvent> events;
  events.reserve(cex->schedule.size() + 1);
  for (std::size_t i = 0; i < cex->schedule.size(); ++i) {
    const ScheduleStep& s = cex->schedule[i];
    trace::TraceEvent e;
    e.name = s.op;  // Op::name is static storage by contract
    e.t = static_cast<double>(i);
    e.dur = 0.9;
    e.entity = scenario.threads()[static_cast<std::size_t>(s.tid)].lane;
    e.cat = trace::Category::kShm;
    e.kind = trace::EventKind::kSpan;
    events.push_back(e);
  }
  if (!cex->schedule.empty()) {
    const ScheduleStep& last = cex->schedule.back();
    trace::TraceEvent v;
    v.name = cex->deadlock ? "deadlock" : "violation";
    v.t = static_cast<double>(cex->schedule.size());
    v.entity = scenario.threads()[static_cast<std::size_t>(last.tid)].lane;
    v.cat = trace::Category::kShm;
    v.kind = trace::EventKind::kInstant;
    events.push_back(v);
  }
  (void)scheduler;

  std::ofstream out(path, std::ios::trunc);
  if (!out) return;  // the counterexample is still reported in full text
  out << trace::chrome_trace_json(events);
  if (out) cex->trace_path = path;
}

}  // namespace

McResult check_shm_protocol(const ScenarioOptions& scenario_opts,
                            const ModelOptions& model,
                            const std::string& trace_out) {
  // Seed the requested bugs in the production shm layer for the whole
  // exploration (every Execution replays against the same hooks).
  shm::ScopedTestHooks guard{shm::TestHooks{
      /*double_deallocate=*/scenario_opts.mutate_double_release,
      /*skip_notify_on_close=*/scenario_opts.mutate_skip_close_notify,
      /*write_after_publish=*/scenario_opts.mutate_write_after_publish,
  }};

  const ShmScenario scenario = ShmScenario::build(scenario_opts);
  Scheduler scheduler(scenario, model);
  McResult result = scheduler.explore();
  if (result.cex && !trace_out.empty()) {
    export_counterexample(scenario, scheduler, &*result.cex, trace_out);
  }
  return result;
}

}  // namespace dmr::mc
