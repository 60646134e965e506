#include "facility/facility.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <utility>

#include "common/log.hpp"
#include "des/process.hpp"
#include "trace/tracer.hpp"

namespace dmr::facility {

const char* tier_name(Tier tier) {
  switch (tier) {
    case Tier::kDedicatedCore:
      return "dedicated-core";
    case Tier::kDedicatedNode:
      return "dedicated-node";
    case Tier::kStagingTier:
      return "staging-tier";
  }
  return "?";
}

const char* policy_name(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kStatic:
      return "static";
    case PolicyKind::kElastic:
      return "elastic";
  }
  return "?";
}

double jains_index(const std::vector<double>& xs) {
  if (xs.empty()) return 1.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double x : xs) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq <= 0.0) return 1.0;
  return sum * sum / (static_cast<double>(xs.size()) * sum_sq);
}

Status validate(const FacilitySpec& spec) {
  if (spec.facility_nodes < 1) {
    return invalid_argument("facility: nodes must be >= 1");
  }
  if (spec.snapshot_period < 0.0) {
    return invalid_argument("facility: snapshot period must be >= 0");
  }
  const PlacementSpec& p = spec.placement_spec;
  if (p.slo_p95_seconds < 0.0) {
    return invalid_argument("placement: slo must be >= 0");
  }
  if (p.trip_phases < 1 || p.clear_phases < 1) {
    return invalid_argument("placement: trip/clear phases must be >= 1");
  }
  if (p.staging_bandwidth <= 0.0) {
    return invalid_argument("placement: staging bandwidth must be > 0");
  }
  if (p.group_servers < 1) {
    return invalid_argument("placement: group_servers must be >= 1");
  }
  std::vector<int> ids;
  for (const TenantSpec& t : spec.tenant_specs) {
    const std::string who = "tenant " + std::to_string(t.tenant_id);
    if (t.arrival_time < 0.0) {
      return invalid_argument(who + ": arrival must be >= 0");
    }
    if (t.slo_p95_seconds < 0.0) {
      return invalid_argument(who + ": slo must be >= 0");
    }
    if (t.base_run.num_nodes < 1) {
      return invalid_argument(who + ": nodes must be >= 1");
    }
    if (t.base_run.num_nodes > spec.facility_nodes) {
      return invalid_argument(who + " wants " +
                              std::to_string(t.base_run.num_nodes) +
                              " nodes but the facility has " +
                              std::to_string(spec.facility_nodes));
    }
    if (t.base_run.iterations < 1) {
      return invalid_argument(who + ": iterations must be >= 1");
    }
    if (t.base_run.kind == strategies::StrategyKind::kDamaris &&
        t.base_run.damaris.transport ==
            strategies::Transport::kDedicatedNodes) {
      return invalid_argument(who +
                              ": dedicated-nodes transport is not "
                              "admissible in a shared facility");
    }
    ids.push_back(t.tenant_id);
  }
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    return invalid_argument("facility: duplicate tenant ids");
  }
  return Status::ok();
}

// ---------------------------------------------------- PlacementEngine

PlacementEngine::PlacementEngine(des::Engine& engine,
                                 const PlacementSpec& ladder,
                                 int data_servers)
    : ladder_spec_(ladder),
      server_count_(std::max(1, data_servers)),
      group_width_(std::clamp(ladder.group_servers, 1, server_count_)),
      staging_queue_(std::make_unique<des::ServiceQueue>(
          engine, std::max(1.0, ladder.staging_bandwidth))),
      group_taken_(static_cast<std::size_t>(server_count_ / group_width_),
                   false) {}

namespace {

/// Index of `id` in the sorted `ids`, -1 when absent.
int sorted_index(const std::vector<int>& ids, int id) {
  const auto it = std::lower_bound(ids.begin(), ids.end(), id);
  if (it == ids.end() || *it != id) return -1;
  return static_cast<int>(it - ids.begin());
}

}  // namespace

void PlacementEngine::admit(int tenant_id, double slo_p95_seconds) {
  const auto it =
      std::lower_bound(ladder_ids_.begin(), ladder_ids_.end(), tenant_id);
  assert(it == ladder_ids_.end() || *it != tenant_id);
  LadderState st;
  st.slo_seconds = slo_p95_seconds;
  const auto ix = it - ladder_ids_.begin();
  ladder_ids_.insert(it, tenant_id);
  ladder_states_.insert(ladder_states_.begin() + ix, st);
}

void PlacementEngine::release(int tenant_id) {
  const int ix = sorted_index(ladder_ids_, tenant_id);
  if (ix < 0) return;
  if (const int g = ladder_states_[ix].server_group; g >= 0) {
    group_taken_[g] = false;
  }
  ladder_ids_.erase(ladder_ids_.begin() + ix);
  ladder_states_.erase(ladder_states_.begin() + ix);
}

const PlacementEngine::LadderState* PlacementEngine::state_of(
    int tenant_id) const {
  const int ix = sorted_index(ladder_ids_, tenant_id);
  return ix < 0 ? nullptr : &ladder_states_[ix];
}

int PlacementEngine::reserve_group() {
  for (std::size_t g = 0; g < group_taken_.size(); ++g) {
    if (!group_taken_[g]) {
      group_taken_[g] = true;
      return static_cast<int>(g);
    }
  }
  return -1;
}

strategies::PlacementDirective PlacementEngine::directive(int tenant_id) {
  const LadderState* st = state_of(tenant_id);
  if (st == nullptr || st->tier == Tier::kDedicatedCore) return {};
  strategies::PlacementDirective dir;
  dir.first_server = st->server_group * group_width_;
  dir.server_span = group_width_;
  if (st->tier == Tier::kStagingTier) {
    dir.staging_tier = staging_queue_.get();
  }
  return dir;
}

bool PlacementEngine::observe(int tenant_id, SimTime write_seconds) {
  const int ix = sorted_index(ladder_ids_, tenant_id);
  if (ix < 0) return false;
  LadderState& st = ladder_states_[ix];
  ++st.phases;
  if (st.slo_seconds <= 0.0) return false;
  const bool violated = write_seconds > st.slo_seconds;
  if (violated) ++st.violations;
  if (ladder_spec_.policy != PolicyKind::kElastic) return false;

  if (violated) {
    st.good_streak = 0;
    ++st.bad_streak;
    if (st.bad_streak < std::max(1, ladder_spec_.trip_phases) ||
        st.tier == Tier::kStagingTier) {
      return false;
    }
    if (st.tier == Tier::kDedicatedCore) {
      const int g = reserve_group();
      // Every server group is reserved: stay put and retry on the next
      // violating phase (the streak keeps the tenant at the front of
      // the line once a group frees up).
      if (g < 0) return false;
      st.server_group = g;
      st.tier = Tier::kDedicatedNode;
    } else {
      st.tier = Tier::kStagingTier;  // keeps its server group for drains
    }
    st.bad_streak = 0;
    ++st.climbs;
    ++climb_total_;
    return true;
  }

  st.bad_streak = 0;
  ++st.good_streak;
  if (st.good_streak < std::max(1, ladder_spec_.clear_phases) ||
      st.tier == Tier::kDedicatedCore) {
    return false;
  }
  if (st.tier == Tier::kStagingTier) {
    st.tier = Tier::kDedicatedNode;
  } else {
    group_taken_[st.server_group] = false;
    st.server_group = -1;
    st.tier = Tier::kDedicatedCore;
  }
  st.good_streak = 0;
  ++st.descents;
  ++descend_total_;
  return true;
}

Tier PlacementEngine::tier_of(int tenant_id) const {
  const LadderState* st = state_of(tenant_id);
  return st == nullptr ? Tier::kDedicatedCore : st->tier;
}

bool PlacementEngine::hot(int tenant_id) const {
  const LadderState* st = state_of(tenant_id);
  return st != nullptr && st->bad_streak > 0;
}

int PlacementEngine::escalations_of(int tenant_id) const {
  const LadderState* st = state_of(tenant_id);
  return st == nullptr ? 0 : st->climbs;
}

int PlacementEngine::recoveries_of(int tenant_id) const {
  const LadderState* st = state_of(tenant_id);
  return st == nullptr ? 0 : st->descents;
}

std::uint64_t PlacementEngine::violations_of(int tenant_id) const {
  const LadderState* st = state_of(tenant_id);
  return st == nullptr ? 0 : st->violations;
}

std::uint64_t PlacementEngine::phases_of(int tenant_id) const {
  const LadderState* st = state_of(tenant_id);
  return st == nullptr ? 0 : st->phases;
}

// ----------------------------------------------------------- Facility

/// Everything the facility tracks for one tenant across its lifetime.
struct Facility::TenantRun {
  TenantSpec plan;     // normalized copy (facility platform, no tracer)
  int slot = 0;        // index into tenant_runs_
  int first_node = -1;
  SimTime admitted_time = -1.0;
  SimTime finished_time = -1.0;
  bool finished = false;
  Sample write_seconds;             // per-phase write observations
  std::vector<SimTime> phase_log;   // same, in completion order
  Bytes observed_bytes = 0;
  // Ladder state captured at finish (the placement engine forgets the
  // tenant when it releases).
  Tier final_tier = Tier::kDedicatedCore;
  int escalations = 0;
  int recoveries = 0;
  std::uint64_t slo_violations = 0;
  std::uint64_t slo_phases = 0;
  std::unique_ptr<Controller> control;
  std::unique_ptr<strategies::Experiment> app;
  strategies::RunResult result;
};

/// The TenantControl adapter wiring one tenant's experiment to the
/// facility's placement engine and QoS accounting.
struct Facility::Controller : strategies::TenantControl {
  Controller(Facility* home, int slot) : home_(home), slot_(slot) {}

  strategies::PlacementDirective writer_directive(int writer) override {
    (void)writer;  // directives are per-tenant: all writers share a tier
    return home_->placement_.directive(
        home_->tenant_runs_[slot_]->plan.tenant_id);
  }

  void on_phase_done(int writer, int phase, SimTime write_seconds,
                     Bytes bytes) override {
    (void)writer, (void)phase;
    home_->note_phase(slot_, write_seconds, bytes);
  }

 private:
  Facility* home_;
  int slot_;
};

Facility::Facility(const FacilitySpec& spec)
    : plan_(spec),
      engine_(),
      machine_(engine_, plan_.platform_spec,
               std::max(1, plan_.facility_nodes), plan_.facility_seed),
      shared_fs_(machine_),
      placement_(engine_, plan_.placement_spec, shared_fs_.num_servers()),
      node_taken_(static_cast<std::size_t>(machine_.num_nodes()), false),
      done_channel_(std::make_unique<des::Channel<int>>(engine_)) {
  const Status valid = validate(plan_);
  if (!valid.is_ok()) {
    DMR_LOG(kError, "facility")
        << "invalid facility spec: " << valid.to_string();
  }
  assert(valid.is_ok());
  for (std::size_t i = 0; i < plan_.tenant_specs.size(); ++i) {
    auto run = std::make_unique<TenantRun>();
    run->slot = static_cast<int>(i);
    run->plan = plan_.tenant_specs[i];
    // Tenants run on the facility's machine: their own platform, tracer
    // and injector fields do not apply here.
    run->plan.base_run.platform = plan_.platform_spec;
    run->plan.base_run.tracer = nullptr;
    run->plan.base_run.injector = nullptr;
    tenant_runs_.push_back(std::move(run));
  }
}

Facility::~Facility() = default;

SimTime Facility::horizon() const {
  SimTime h = 3600.0;
  for (const auto& run : tenant_runs_) {
    const strategies::RunConfig& cfg = run->plan.base_run;
    h = std::max(h, run->plan.arrival_time +
                        cfg.iterations *
                            cfg.workload.seconds_per_iteration * 3.0 +
                        3600.0);
  }
  return h;
}

int Facility::find_slice(int nodes_wanted) const {
  const int total = static_cast<int>(node_taken_.size());
  for (int first = 0; first + nodes_wanted <= total; ++first) {
    bool free = true;
    for (int n = first; n < first + nodes_wanted; ++n) {
      if (node_taken_[n]) {
        free = false;
        break;
      }
    }
    if (free) return first;
  }
  return -1;
}

void Facility::claim_slice(int first, int nodes_wanted, bool taken) {
  for (int n = first; n < first + nodes_wanted; ++n) {
    node_taken_[n] = taken;
  }
}

void Facility::note_phase(int slot, SimTime write_seconds, Bytes bytes) {
  TenantRun& run = *tenant_runs_[slot];
  run.write_seconds.add(write_seconds);
  run.phase_log.push_back(write_seconds);
  run.observed_bytes += bytes;
  all_phase_write_.add(write_seconds);
  placement_.observe(run.plan.tenant_id, write_seconds);
}

void Facility::note_finish(int slot) {
  TenantRun& run = *tenant_runs_[slot];
  run.finished = true;
  run.finished_time = engine_.now();
  run.result = run.app->collect();
  const int tid = run.plan.tenant_id;
  run.final_tier = placement_.tier_of(tid);
  run.escalations = placement_.escalations_of(tid);
  run.recoveries = placement_.recoveries_of(tid);
  run.slo_violations = placement_.violations_of(tid);
  run.slo_phases = placement_.phases_of(tid);
  placement_.release(tid);
  claim_slice(run.first_node, run.plan.base_run.num_nodes, false);
  --resident_count_;
  ++finished_count_;
  done_channel_->send(slot);
}

des::Process Facility::admission_loop() {
  // Deterministic admission order: (arrival, tenant id).
  std::vector<int> order(tenant_runs_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [this](int a, int b) {
    const TenantSpec& ta = tenant_runs_[a]->plan;
    const TenantSpec& tb = tenant_runs_[b]->plan;
    if (ta.arrival_time != tb.arrival_time) {
      return ta.arrival_time < tb.arrival_time;
    }
    return ta.tenant_id < tb.tenant_id;
  });
  for (const int slot : order) {
    TenantRun& run = *tenant_runs_[slot];
    co_await engine_.sleep_until(run.plan.arrival_time);
    int first = find_slice(run.plan.base_run.num_nodes);
    while (first < 0) {
      // Machine full: wait for the next tenant to finish, then retry.
      (void)co_await done_channel_->recv();
      first = find_slice(run.plan.base_run.num_nodes);
    }
    claim_slice(first, run.plan.base_run.num_nodes, true);
    run.first_node = first;
    run.admitted_time = engine_.now();
    const double slo = run.plan.slo_p95_seconds > 0.0
                           ? run.plan.slo_p95_seconds
                           : plan_.placement_spec.slo_p95_seconds;
    placement_.admit(run.plan.tenant_id, slo);
    ++resident_count_;
    peak_resident_ = std::max(peak_resident_, resident_count_);
    const int slot_copy = run.slot;
    run.control = std::make_unique<Controller>(this, slot_copy);
    run.app = std::make_unique<strategies::Experiment>(
        run.plan.base_run, engine_, machine_, shared_fs_, first,
        run.control.get(), [this, slot_copy] { note_finish(slot_copy); });
    run.app->start();
  }
}

monitor::MonitorSnapshot Facility::assemble_snapshot() {
  monitor::MonitorSnapshot snap;
  snap.sequence = snapshot_seq_++;
  snap.uptime_seconds = engine_.now();
  snap.source = "facility";
  snap.shards = shared_fs_.shard_map().shard_count;
  snap.clients = resident_count_;
  snap.iterations = static_cast<std::int64_t>(all_phase_write_.count());
  snap.write_jitter = trace::JitterSummary::of(all_phase_write_);
  snap.degrade_mode = "normal";
  for (const auto& runp : tenant_runs_) {
    const TenantRun& run = *runp;
    if (run.admitted_time < 0.0 || run.finished) continue;
    monitor::TenantRow row;
    row.id = run.plan.tenant_id;
    row.name = run.plan.display_name;
    row.tier = tier_name(placement_.tier_of(run.plan.tenant_id));
    row.p95_seconds = trace::JitterSummary::of(run.write_seconds).p95;
    row.bytes = static_cast<std::uint64_t>(run.observed_bytes);
    const double slo = run.plan.slo_p95_seconds > 0.0
                           ? run.plan.slo_p95_seconds
                           : plan_.placement_spec.slo_p95_seconds;
    row.slo = slo <= 0.0 ? "none"
              : placement_.hot(run.plan.tenant_id) ? "hot"
                                                   : "ok";
    snap.tenants.push_back(std::move(row));
  }
  return snap;
}

des::Process Facility::snapshot_loop() {
  const int total = static_cast<int>(tenant_runs_.size());
  while (finished_count_ < total) {
    co_await engine_.delay(plan_.snapshot_period);
    if (finished_count_ >= total) break;
    if (plan_.snapshot_sink) plan_.snapshot_sink(assemble_snapshot());
  }
}

FacilityOutcome Facility::run() {
  // One run per Facility: the engine cannot be rewound.
  trace::ScopedTracer scoped(plan_.tracer_hook);
  shared_fs_.spawn_interference(horizon());
  engine_.spawn(admission_loop());
  if (plan_.snapshot_period > 0.0 && !tenant_runs_.empty()) {
    engine_.spawn(snapshot_loop());
  }
  engine_.run();

  FacilityOutcome out;
  out.mds_map = shared_fs_.shard_map();
  std::vector<double> achieved;
  for (const auto& runp : tenant_runs_) {
    const TenantRun& run = *runp;
    TenantOutcome t;
    t.tenant_id = run.plan.tenant_id;
    t.display_name = run.plan.display_name;
    t.arrival_time = run.plan.arrival_time;
    t.admitted_time = run.admitted_time;
    t.finished_time = run.finished_time;
    t.final_tier = run.final_tier;
    t.escalations = run.escalations;
    t.recoveries = run.recoveries;
    t.slo_violations = run.slo_violations;
    t.slo_phases = run.slo_phases;
    t.write_jitter = trace::JitterSummary::of(run.write_seconds);
    t.phase_write_log = run.phase_log;
    t.run_result = run.result;
    if (run.finished) {
      out.makespan = std::max(out.makespan, run.finished_time);
      const double span = run.finished_time - run.admitted_time;
      const double bytes =
          static_cast<double>(run.result.bytes_per_phase) *
          run.result.phases;
      t.achieved_bandwidth = span > 0.0 ? bytes / span : 0.0;
    }
    const cm1::WorkloadModel& w = run.plan.base_run.workload;
    const double interval = w.write_interval * w.seconds_per_iteration;
    t.requested_bandwidth =
        run.plan.requested_bandwidth > 0.0
            ? run.plan.requested_bandwidth
            : (interval > 0.0
                   ? static_cast<double>(run.result.bytes_per_phase) /
                         interval
                   : 0.0);
    achieved.push_back(t.achieved_bandwidth);
    out.tenant_outcomes.push_back(std::move(t));
  }
  out.facility_fs_stats = shared_fs_.stats();
  out.stored_bytes = out.facility_fs_stats.bytes_written;
  out.aggregate_bandwidth =
      out.makespan > 0.0
          ? static_cast<double>(out.stored_bytes) / out.makespan
          : 0.0;
  out.fairness_index = jains_index(achieved);
  for (int s = 0; s < out.mds_map.shard_count; ++s) {
    out.mds_shard_busy.push_back(shared_fs_.mds_busy(s));
  }
  out.peak_resident = peak_resident_;
  out.ladder_escalations = placement_.total_escalations();
  out.ladder_recoveries = placement_.total_recoveries();
  return out;
}

}  // namespace dmr::facility
