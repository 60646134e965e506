// Facility-layer tests: spec validation, the placement ladder's
// hysteresis, the sharded-MDS shard map, facility monitoring snapshots,
// the two headline claims (sharding absorbs a create storm, the elastic
// ladder holds a p95 SLO the static policy misses) and — the anchor —
// single-tenant parity: a facility hosting exactly one tenant at t=0
// with default placement replays the run_strategy() timeline
// bit-for-bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "des/engine.hpp"
#include "experiments/experiments.hpp"
#include "facility/facility.hpp"
#include "strategies/strategy.hpp"

namespace dmr::facility {
namespace {

// ------------------------------------------------------------ helpers

strategies::RunConfig small_damaris(int cores = 24, int iterations = 4) {
  return experiments::kraken_config(strategies::StrategyKind::kDamaris,
                                    cores, iterations, /*write_interval=*/2,
                                    /*iteration_seconds=*/1.0, 2012);
}

FacilitySpec one_tenant_spec(const strategies::RunConfig& cfg) {
  FacilitySpec spec;
  spec.platform_spec = cfg.platform;
  spec.facility_nodes = cfg.num_nodes;
  spec.facility_seed = cfg.seed;
  TenantSpec t;
  t.tenant_id = 0;
  t.display_name = "solo";
  t.base_run = cfg;
  spec.tenant_specs.push_back(std::move(t));
  return spec;
}

// -------------------------------------------------------- jains_index

TEST(JainsIndex, EqualSharesAreFair) {
  EXPECT_DOUBLE_EQ(jains_index({5.0, 5.0, 5.0, 5.0}), 1.0);
  EXPECT_DOUBLE_EQ(jains_index({}), 1.0);
  EXPECT_DOUBLE_EQ(jains_index({0.0, 0.0}), 1.0);
}

TEST(JainsIndex, StarvationDropsTowardOneOverN) {
  // One tenant gets everything: index -> 1/n.
  const double idx = jains_index({10.0, 0.0, 0.0, 0.0});
  EXPECT_NEAR(idx, 0.25, 1e-12);
  // Mild skew sits between 1/n and 1.
  const double mild = jains_index({4.0, 5.0, 6.0});
  EXPECT_GT(mild, 0.9);
  EXPECT_LT(mild, 1.0);
}

// ----------------------------------------------------------- validate

TEST(FacilityValidate, AcceptsAWellFormedSpec) {
  FacilitySpec spec = one_tenant_spec(small_damaris());
  EXPECT_TRUE(validate(spec).is_ok());
}

TEST(FacilityValidate, RejectsStructuralMistakes) {
  {
    FacilitySpec spec = one_tenant_spec(small_damaris());
    spec.facility_nodes = 0;
    EXPECT_FALSE(validate(spec).is_ok());
  }
  {
    FacilitySpec spec = one_tenant_spec(small_damaris());
    spec.tenant_specs[0].arrival_time = -1.0;
    EXPECT_FALSE(validate(spec).is_ok());
  }
  {
    FacilitySpec spec = one_tenant_spec(small_damaris());
    spec.tenant_specs.push_back(spec.tenant_specs[0]);  // duplicate id
    EXPECT_FALSE(validate(spec).is_ok());
  }
  {
    FacilitySpec spec = one_tenant_spec(small_damaris());
    spec.tenant_specs[0].base_run.num_nodes = spec.facility_nodes + 1;
    EXPECT_FALSE(validate(spec).is_ok());
  }
  {
    FacilitySpec spec = one_tenant_spec(small_damaris());
    spec.tenant_specs[0].base_run.damaris.transport =
        strategies::Transport::kDedicatedNodes;
    EXPECT_FALSE(validate(spec).is_ok());
  }
  {
    FacilitySpec spec = one_tenant_spec(small_damaris());
    spec.placement_spec.trip_phases = 0;
    EXPECT_FALSE(validate(spec).is_ok());
  }
  {
    FacilitySpec spec = one_tenant_spec(small_damaris());
    spec.placement_spec.staging_bandwidth = 0.0;
    EXPECT_FALSE(validate(spec).is_ok());
  }
}

// ---------------------------------------------------- PlacementEngine

TEST(PlacementEngine, StaticPolicyCountsButNeverRetiers) {
  des::Engine eng;
  PlacementSpec spec;
  spec.policy = PolicyKind::kStatic;
  spec.trip_phases = 1;
  PlacementEngine engine(eng, spec, /*data_servers=*/16);
  engine.admit(7, /*slo=*/0.1);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(engine.observe(7, /*write_seconds=*/1.0));
  }
  EXPECT_EQ(engine.tier_of(7), Tier::kDedicatedCore);
  EXPECT_EQ(engine.violations_of(7), 5u);
  EXPECT_EQ(engine.phases_of(7), 5u);
  EXPECT_EQ(engine.total_escalations(), 0u);
}

TEST(PlacementEngine, LadderClimbsWithTripHysteresis) {
  des::Engine eng;
  PlacementSpec spec;
  spec.policy = PolicyKind::kElastic;
  spec.trip_phases = 2;
  spec.clear_phases = 2;
  spec.group_servers = 4;
  PlacementEngine engine(eng, spec, /*data_servers=*/16);
  engine.admit(1, /*slo=*/0.1);

  // Default directive at the dedicated-core tier: hash placement.
  EXPECT_EQ(engine.directive(1).first_server, -1);
  EXPECT_EQ(engine.directive(1).staging_tier, nullptr);

  // One violation is not enough (trip=2)...
  EXPECT_FALSE(engine.observe(1, 1.0));
  EXPECT_EQ(engine.tier_of(1), Tier::kDedicatedCore);
  // ...the second trips the ladder to a dedicated node slice.
  EXPECT_TRUE(engine.observe(1, 1.0));
  EXPECT_EQ(engine.tier_of(1), Tier::kDedicatedNode);
  const strategies::PlacementDirective node = engine.directive(1);
  EXPECT_EQ(node.first_server, 0);
  EXPECT_EQ(node.server_span, 4);
  EXPECT_EQ(node.staging_tier, nullptr);

  // Still violating: two more phases escalate to the staging tier.
  EXPECT_FALSE(engine.observe(1, 1.0));
  EXPECT_TRUE(engine.observe(1, 1.0));
  EXPECT_EQ(engine.tier_of(1), Tier::kStagingTier);
  EXPECT_NE(engine.directive(1).staging_tier, nullptr);
  EXPECT_EQ(engine.escalations_of(1), 2);

  // Clean phases walk back down one tier per clear streak.
  EXPECT_FALSE(engine.observe(1, 0.01));
  EXPECT_TRUE(engine.observe(1, 0.01));
  EXPECT_EQ(engine.tier_of(1), Tier::kDedicatedNode);
  EXPECT_FALSE(engine.observe(1, 0.01));
  EXPECT_TRUE(engine.observe(1, 0.01));
  EXPECT_EQ(engine.tier_of(1), Tier::kDedicatedCore);
  EXPECT_EQ(engine.recoveries_of(1), 2);
  EXPECT_EQ(engine.total_escalations(), 2u);
  EXPECT_EQ(engine.total_recoveries(), 2u);
}

TEST(PlacementEngine, GroupExhaustionKeepsTenantAtCore) {
  des::Engine eng;
  PlacementSpec spec;
  spec.policy = PolicyKind::kElastic;
  spec.trip_phases = 1;
  spec.group_servers = 8;
  PlacementEngine engine(eng, spec, /*data_servers=*/8);  // one group
  engine.admit(1, 0.1);
  engine.admit(2, 0.1);
  EXPECT_TRUE(engine.observe(1, 1.0));  // takes the only group
  EXPECT_EQ(engine.tier_of(1), Tier::kDedicatedNode);
  EXPECT_FALSE(engine.observe(2, 1.0));  // nothing left: stays put
  EXPECT_EQ(engine.tier_of(2), Tier::kDedicatedCore);
  // Releasing tenant 1 frees the group for the next violation.
  engine.release(1);
  EXPECT_TRUE(engine.observe(2, 1.0));
  EXPECT_EQ(engine.tier_of(2), Tier::kDedicatedNode);
}

// ------------------------------------------------ single-tenant parity

using Fingerprint =
    std::tuple<double, double, double, double, double, Bytes, std::uint64_t,
               std::uint64_t, std::uint64_t>;

Fingerprint fingerprint(const strategies::RunResult& r) {
  return {r.total_runtime,
          r.aggregate_throughput,
          r.phase_seconds.mean(),
          r.rank_write_seconds.mean(),
          r.dedicated_write_seconds.mean(),
          r.fs_stats.bytes_written,
          r.fs_stats.creates,
          r.fs_stats.write_ops,
          r.fs_stats.stream_switches};
}

TEST(Facility, SingleTenantReplaysRunStrategyTimeline) {
  const strategies::RunConfig cfg = small_damaris();
  const strategies::RunResult solo = strategies::run_strategy(cfg);

  Facility fac(one_tenant_spec(cfg));
  const FacilityOutcome out = fac.run();
  ASSERT_EQ(out.tenant_outcomes.size(), 1u);
  const TenantOutcome& t = out.tenant_outcomes[0];
  EXPECT_DOUBLE_EQ(t.admitted_time, 0.0);
  EXPECT_EQ(fingerprint(solo), fingerprint(t.run_result));
  EXPECT_EQ(out.peak_resident, 1);
  EXPECT_EQ(out.mds_map.shard_count, 1);  // serialized single MDS
  EXPECT_DOUBLE_EQ(out.fairness_index, 1.0);
}

// ----------------------------------------------------- facility runs

TEST(Facility, ShardedMdsHandsOutTheShardMap) {
  strategies::RunConfig cfg = small_damaris(/*cores=*/12, /*iterations=*/2);
  FacilitySpec spec = one_tenant_spec(cfg);
  spec.platform_spec.fs.metadata = cluster::MetadataModel::kSharded;
  spec.platform_spec.fs.mds_shards = 4;
  spec.platform_spec.fs.mds_replicas = 2;
  spec.tenant_specs[0].base_run.platform = spec.platform_spec;

  Facility fac(spec);
  const FacilityOutcome out = fac.run();
  EXPECT_EQ(out.mds_map.shard_count, 4);
  EXPECT_EQ(out.mds_map.replica_count, 2);
  ASSERT_EQ(out.mds_shard_busy.size(), 4u);
  double busy = 0.0;
  for (const SimTime b : out.mds_shard_busy) busy += b;
  EXPECT_GT(busy, 0.0);  // the creates actually hit the shards
}

TEST(Facility, QueuesTenantsWhenTheMachineIsFull) {
  strategies::RunConfig cfg = small_damaris(/*cores=*/12, /*iterations=*/2);
  FacilitySpec spec;
  spec.platform_spec = cfg.platform;
  spec.facility_nodes = 1;  // room for one tenant at a time
  spec.facility_seed = cfg.seed;
  for (int i = 0; i < 3; ++i) {
    TenantSpec t;
    t.tenant_id = i;
    t.display_name = "t" + std::to_string(i);
    t.base_run = cfg;
    t.base_run.seed = cfg.seed + static_cast<std::uint64_t>(i);
    spec.tenant_specs.push_back(std::move(t));
  }
  Facility fac(spec);
  const FacilityOutcome out = fac.run();
  ASSERT_EQ(out.tenant_outcomes.size(), 3u);
  EXPECT_EQ(out.peak_resident, 1);
  // Tenants ran back-to-back: each admission waits for the previous
  // finish, in (arrival, id) order.
  EXPECT_DOUBLE_EQ(out.tenant_outcomes[0].admitted_time, 0.0);
  EXPECT_GE(out.tenant_outcomes[1].admitted_time,
            out.tenant_outcomes[0].finished_time);
  EXPECT_GE(out.tenant_outcomes[2].admitted_time,
            out.tenant_outcomes[1].finished_time);
  EXPECT_GT(out.makespan, out.tenant_outcomes[0].finished_time);
}

TEST(Facility, SnapshotsCarryThePerTenantTable) {
  strategies::RunConfig cfg = small_damaris(/*cores=*/12, /*iterations=*/4);
  FacilitySpec spec;
  spec.platform_spec = cfg.platform;
  spec.facility_nodes = 2;
  spec.facility_seed = cfg.seed;
  for (int i = 0; i < 2; ++i) {
    TenantSpec t;
    t.tenant_id = i;
    t.display_name = "app-" + std::to_string(i);
    t.base_run = cfg;
    t.slo_p95_seconds = 10.0;  // generous: slo column reads "ok"
    spec.tenant_specs.push_back(std::move(t));
  }
  std::vector<monitor::MonitorSnapshot> seen;
  spec.snapshot_period = 1.0;
  spec.snapshot_sink = [&seen](const monitor::MonitorSnapshot& s) {
    seen.push_back(s);
  };
  Facility fac(spec);
  (void)fac.run();

  ASSERT_FALSE(seen.empty());
  const monitor::MonitorSnapshot& snap = seen.front();
  EXPECT_EQ(snap.source, "facility");
  ASSERT_EQ(snap.tenants.size(), 2u);
  EXPECT_EQ(snap.tenants[0].id, 0);
  EXPECT_EQ(snap.tenants[0].name, "app-0");
  EXPECT_EQ(snap.tenants[0].tier, "dedicated-core");
  EXPECT_EQ(snap.tenants[0].slo, "ok");
  // The serialized line carries the table too.
  EXPECT_NE(snap.to_json().find("\"tenants\":["), std::string::npos);
  // Sequence numbers are monotonic from 0.
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].sequence, static_cast<std::int64_t>(i));
  }
}

TEST(Facility, IdenticalSpecsGiveIdenticalOutcomes) {
  strategies::RunConfig cfg = small_damaris(/*cores=*/12, /*iterations=*/2);
  FacilitySpec spec;
  spec.platform_spec = cfg.platform;
  spec.facility_nodes = 2;
  spec.facility_seed = cfg.seed;
  for (int i = 0; i < 2; ++i) {
    TenantSpec t;
    t.tenant_id = i;
    t.base_run = cfg;
    t.base_run.seed = cfg.seed + static_cast<std::uint64_t>(i);
    t.arrival_time = 0.5 * i;
    spec.tenant_specs.push_back(std::move(t));
  }
  Facility a(spec);
  Facility b(spec);
  const FacilityOutcome oa = a.run();
  const FacilityOutcome ob = b.run();
  ASSERT_EQ(oa.tenant_outcomes.size(), ob.tenant_outcomes.size());
  EXPECT_EQ(oa.makespan, ob.makespan);
  EXPECT_EQ(oa.aggregate_bandwidth, ob.aggregate_bandwidth);
  EXPECT_EQ(oa.stored_bytes, ob.stored_bytes);
  for (std::size_t i = 0; i < oa.tenant_outcomes.size(); ++i) {
    EXPECT_EQ(oa.tenant_outcomes[i].finished_time,
              ob.tenant_outcomes[i].finished_time);
    EXPECT_EQ(oa.tenant_outcomes[i].achieved_bandwidth,
              ob.tenant_outcomes[i].achieved_bandwidth);
  }
}

// ------------------------------------------------------ create storm

// 64 tenants: four admission waves of 16 resident tenants on the
// report's create-storm facility (experiments::facility_storm_spec), a
// metadata-bound run, which is what the sharded service is for.
FacilityOutcome run_storm(bool sharded) {
  return Facility(experiments::facility_storm_spec(64, sharded)).run();
}

TEST(Facility, ShardedMdsAbsorbsACreateStorm) {
  const FacilityOutcome serialized = run_storm(/*sharded=*/false);
  const FacilityOutcome sharded = run_storm(/*sharded=*/true);
  EXPECT_GE(sharded.aggregate_bandwidth / serialized.aggregate_bandwidth, 2.0);
  EXPECT_GT(sharded.facility_fs_stats.mds_replica_reads, 0u);
}

// -------------------------------------------------------- SLO ladder

// 12 Damaris tenants, one node each, submitted 0.3 s apart to a 12-node
// facility whose 12 data servers run at ~70% aggregate demand: the
// shared tier cannot hold a 0.35 s p95 write SLO. trip=2 / clear=50
// walks every violating tenant up the ladder and keeps it there; the
// 16 GiB/s staging tier absorbs a full 12-tenant pile-up in ~0.2 s.
constexpr double kLadderSlo = 0.35;

FacilityOutcome run_ladder(PolicyKind policy) {
  strategies::RunConfig base = experiments::kraken_config(
      strategies::StrategyKind::kDamaris, 12, /*iterations=*/16,
      /*write_interval=*/1, /*iteration_seconds=*/1.0, 2012);

  FacilitySpec spec;
  spec.platform_spec = base.platform;
  spec.platform_spec.fs.data_servers = 12;
  spec.facility_nodes = 12;
  spec.facility_seed = 2012;
  spec.placement_spec.policy = policy;
  spec.placement_spec.slo_p95_seconds = kLadderSlo;
  spec.placement_spec.trip_phases = 2;
  spec.placement_spec.clear_phases = 50;  // no recovery within the run
  spec.placement_spec.staging_bandwidth = 16.0 * static_cast<double>(GiB);
  spec.placement_spec.group_servers = 1;  // one reserved server each
  for (int i = 0; i < 12; ++i) {
    TenantSpec t;
    t.tenant_id = i;
    t.display_name = "app-" + std::to_string(i);
    t.arrival_time = 0.3 * i;
    t.base_run = base;
    t.base_run.seed = 2012 + static_cast<std::uint64_t>(i);
    spec.tenant_specs.push_back(std::move(t));
  }
  return Facility(spec).run();
}

/// The worst tenant's p95 write time over the steady-state phases 8..15
/// (the ladder converges within the first eight).
double steady_p95_max(const FacilityOutcome& out) {
  double worst = 0.0;
  for (const TenantOutcome& t : out.tenant_outcomes) {
    Sample steady;
    for (std::size_t p = 8; p < t.phase_write_log.size(); ++p) {
      steady.add(t.phase_write_log[p]);
    }
    if (steady.count() > 0) worst = std::max(worst, steady.percentile(95.0));
  }
  return worst;
}

TEST(Facility, ElasticLadderHoldsTheP95Slo) {
  const FacilityOutcome fixed = run_ladder(PolicyKind::kStatic);
  EXPECT_GT(steady_p95_max(fixed), kLadderSlo);
  const FacilityOutcome elastic = run_ladder(PolicyKind::kElastic);
  EXPECT_LE(steady_p95_max(elastic), kLadderSlo);
  EXPECT_GT(elastic.ladder_escalations, 0u);

  // No faults are injected, and every tier's stage composition keeps
  // the write-pipeline invariants: no write fails.
  for (const FacilityOutcome* out : {&fixed, &elastic}) {
    for (const TenantOutcome& t : out->tenant_outcomes) {
      SCOPED_TRACE(t.display_name);
      EXPECT_EQ(t.run_result.failed_writes, 0u);
      EXPECT_TRUE(t.run_result.first_error.is_ok())
          << t.run_result.first_error.to_string();
    }
  }

  // The ladder's decisions are a function of the spec alone.
  const FacilityOutcome again = run_ladder(PolicyKind::kElastic);
  EXPECT_EQ(again.ladder_escalations, elastic.ladder_escalations);
  EXPECT_EQ(again.ladder_recoveries, elastic.ladder_recoveries);
  EXPECT_EQ(again.aggregate_bandwidth, elastic.aggregate_bandwidth);
  EXPECT_EQ(again.fairness_index, elastic.fairness_index);
  ASSERT_EQ(again.tenant_outcomes.size(), elastic.tenant_outcomes.size());
  for (std::size_t i = 0; i < again.tenant_outcomes.size(); ++i) {
    EXPECT_EQ(again.tenant_outcomes[i].phase_write_log,
              elastic.tenant_outcomes[i].phase_write_log);
    EXPECT_EQ(again.tenant_outcomes[i].slo_violations,
              elastic.tenant_outcomes[i].slo_violations);
    EXPECT_EQ(again.tenant_outcomes[i].final_tier,
              elastic.tenant_outcomes[i].final_tier);
  }
}

}  // namespace
}  // namespace dmr::facility
