// Multi-tenant facility layer (DESIGN.md §16): many applications —
// each a full strategies::RunConfig — share ONE simulated machine and
// file system, arriving on a deterministic schedule and contending
// through the existing noise/link models.
//
// Three pieces:
//
//   Facility         admits tenants in (arrival, id) order onto
//                    contiguous node slices of the shared machine,
//                    runs each as a facility-mode strategies::Experiment
//                    and queues arrivals while the machine is full;
//   sharded MDS      MetadataModel::kSharded in fs/sim_fs.*: the
//                    namespace is hash-partitioned over per-shard serial
//                    queues with replicated read service; tenants get
//                    the fs::MdsShardMap at admission (ViPIOS-style
//                    server-directed negotiation);
//   PlacementEngine  the elastic resource ladder — dedicated core →
//                    dedicated node (a reserved data-server slice) →
//                    staging tier (burst buffer + background drain).
//                    It observes every tenant write phase against the
//                    tenant's p95 SLO and re-tiers with DegradeController
//                    style trip/clear hysteresis.
//
// Determinism: the facility is one DES engine; identical specs yield
// byte-identical outcomes, and a single tenant arriving at t=0 with
// default placement replays the exact event timeline of run_strategy()
// (pinned by tests/facility_test.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/machine.hpp"
#include "common/stats.hpp"
#include "des/channel.hpp"
#include "des/engine.hpp"
#include "fs/sim_fs.hpp"
#include "monitor/snapshot.hpp"
#include "strategies/experiment.hpp"
#include "trace/jitter_report.hpp"

namespace dmr::facility {

/// The resource ladder of the elastic placement policy, in escalation
/// order. Tenants start on the paper's dedicated core.
enum class Tier {
  kDedicatedCore = 0,  // default hash placement, shared servers
  kDedicatedNode = 1,  // a reserved data-server slice for this tenant
  kStagingTier = 2,    // burst buffer absorbs writes; background drain
};

const char* tier_name(Tier tier);

enum class PolicyKind { kStatic, kElastic };

const char* policy_name(PolicyKind kind);

/// Placement-ladder configuration.
struct PlacementSpec {
  PolicyKind policy = PolicyKind::kStatic;
  /// Default per-tenant p95 SLO on observed write seconds; 0 = none.
  double slo_p95_seconds = 0.0;
  /// Consecutive violating phases before escalating one tier.
  int trip_phases = 2;
  /// Consecutive clean phases before recovering one tier.
  int clear_phases = 3;
  /// Absorption bandwidth of the staging-tier burst buffer, B/s.
  double staging_bandwidth = 8.0 * GiB;
  /// Data servers reserved per escalated tenant (the dedicated-node
  /// slice width); clamped to the server count.
  int group_servers = 8;
};

/// One tenant of the facility schedule.
struct TenantSpec {
  int tenant_id = 0;
  std::string display_name;
  SimTime arrival_time = 0.0;
  /// The tenant's full application configuration. Its platform/tracer/
  /// injector fields are ignored — the facility's machine and file
  /// system are shared. Transport::kDedicatedNodes is not admissible.
  strategies::RunConfig base_run;
  /// Per-tenant SLO override; 0 inherits PlacementSpec::slo_p95_seconds.
  double slo_p95_seconds = 0.0;
  /// For achieved-vs-requested reporting; 0 derives the request from
  /// the workload (bytes per phase / write interval).
  double requested_bandwidth = 0.0;
};

/// The whole facility run.
struct FacilitySpec {
  cluster::PlatformSpec platform_spec;
  int facility_nodes = 8;
  std::uint64_t facility_seed = 1;
  PlacementSpec placement_spec;
  std::vector<TenantSpec> tenant_specs;
  /// Optional structured tracing for the whole facility (not owned).
  trace::Tracer* tracer_hook = nullptr;
  /// > 0: assemble a MonitorSnapshot with the per-tenant table every
  /// `snapshot_period` simulated seconds and hand it to snapshot_sink.
  SimTime snapshot_period = 0.0;
  std::function<void(const monitor::MonitorSnapshot&)> snapshot_sink;
};

/// Per-tenant QoS outcome.
struct TenantOutcome {
  int tenant_id = 0;
  std::string display_name;
  SimTime arrival_time = 0.0;
  SimTime admitted_time = 0.0;
  SimTime finished_time = 0.0;
  Tier final_tier = Tier::kDedicatedCore;
  int escalations = 0;
  int recoveries = 0;
  /// Phases whose observed write time crossed the tenant's SLO, out of
  /// the phases observed (0/0 when the tenant has no SLO).
  std::uint64_t slo_violations = 0;
  std::uint64_t slo_phases = 0;
  /// Jitter percentiles over the tenant's per-phase write observations.
  trace::JitterSummary write_jitter;
  /// The raw per-phase write observations, in completion order — lets
  /// capacity planning window out warm-up phases (the ladder needs
  /// trip_phases observations per escalation step before it converges).
  std::vector<SimTime> phase_write_log;
  double achieved_bandwidth = 0.0;
  double requested_bandwidth = 0.0;
  strategies::RunResult run_result;
};

/// Facility-wide outcome.
struct FacilityOutcome {
  std::vector<TenantOutcome> tenant_outcomes;
  SimTime makespan = 0.0;
  /// Bytes the shared file system stored divided by the makespan.
  double aggregate_bandwidth = 0.0;
  /// Jain's fairness index over the tenants' achieved bandwidths.
  double fairness_index = 1.0;
  Bytes stored_bytes = 0;
  fs::FsStats facility_fs_stats;
  fs::MdsShardMap mds_map;
  /// Cumulative busy seconds of each metadata shard primary.
  std::vector<SimTime> mds_shard_busy;
  /// Most tenants resident (admitted, unfinished) at once.
  int peak_resident = 0;
  std::uint64_t ladder_escalations = 0;
  std::uint64_t ladder_recoveries = 0;
};

/// Jain's fairness index (Σx)² / (n·Σx²) ∈ (0, 1]; 1 when empty.
double jains_index(const std::vector<double>& xs);

/// Structural validation of a facility spec: positive node counts and
/// arrival times, unique tenant ids, admissible transports, tenants
/// that fit the facility, sane ladder parameters.
Status validate(const FacilitySpec& spec);

/// The elastic placement-policy engine. Pure control logic plus the
/// staging-tier burst buffer; it never advances simulated time itself.
class PlacementEngine {
 public:
  PlacementEngine(des::Engine& engine, const PlacementSpec& ladder,
                  int data_servers);

  /// Registers a tenant at its admission (ladder starts at the
  /// dedicated-core tier). `slo_p95_seconds` 0 disables observation.
  void admit(int tenant_id, double slo_p95_seconds);
  /// Drops the tenant and frees any reserved server group.
  void release(int tenant_id);

  /// Placement for the tenant's next write, per its current tier.
  strategies::PlacementDirective directive(int tenant_id);

  /// Feeds one finished write phase; returns true when the tenant
  /// changed tier (elastic policy only — static counts violations but
  /// never re-tiers).
  bool observe(int tenant_id, SimTime write_seconds);

  Tier tier_of(int tenant_id) const;
  /// Tenant is mid violation streak (for the monitor's SLO column).
  bool hot(int tenant_id) const;
  int escalations_of(int tenant_id) const;
  int recoveries_of(int tenant_id) const;
  std::uint64_t violations_of(int tenant_id) const;
  std::uint64_t phases_of(int tenant_id) const;

  std::uint64_t total_escalations() const { return climb_total_; }
  std::uint64_t total_recoveries() const { return descend_total_; }

 private:
  /// Per-tenant ladder state.
  struct LadderState {
    double slo_seconds = 0.0;
    Tier tier = Tier::kDedicatedCore;
    int bad_streak = 0;
    int good_streak = 0;
    int server_group = -1;  // reserved group index, -1 = none
    int climbs = 0;
    int descents = 0;
    std::uint64_t violations = 0;
    std::uint64_t phases = 0;
  };

  const LadderState* state_of(int tenant_id) const;
  int reserve_group();

  PlacementSpec ladder_spec_;
  int server_count_;
  int group_width_;
  std::unique_ptr<des::ServiceQueue> staging_queue_;
  std::vector<int> ladder_ids_;
  std::vector<LadderState> ladder_states_;
  std::vector<bool> group_taken_;
  std::uint64_t climb_total_ = 0;
  std::uint64_t descend_total_ = 0;
};

/// The facility driver. Construct, run() once, read the outcome.
class Facility {
 public:
  explicit Facility(const FacilitySpec& spec);
  ~Facility();

  Facility(const Facility&) = delete;
  Facility& operator=(const Facility&) = delete;

  FacilityOutcome run();

 private:
  /// Everything the facility tracks per tenant.
  struct TenantRun;
  struct Controller;

  des::Process admission_loop();
  des::Process snapshot_loop();
  monitor::MonitorSnapshot assemble_snapshot();
  void note_phase(int slot, SimTime write_seconds, Bytes bytes);
  void note_finish(int slot);
  int find_slice(int nodes_wanted) const;
  void claim_slice(int first, int nodes_wanted, bool taken);
  SimTime horizon() const;

  FacilitySpec plan_;
  des::Engine engine_;
  cluster::Machine machine_;
  fs::SimFs shared_fs_;
  PlacementEngine placement_;
  std::vector<std::unique_ptr<TenantRun>> tenant_runs_;
  std::vector<bool> node_taken_;
  std::unique_ptr<des::Channel<int>> done_channel_;
  /// All tenants' phase observations pooled (for the snapshot's
  /// facility-wide jitter block).
  Sample all_phase_write_;
  int resident_count_ = 0;
  int peak_resident_ = 0;
  int finished_count_ = 0;
  std::int64_t snapshot_seq_ = 0;
};

}  // namespace dmr::facility
