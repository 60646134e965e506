// Multi-tenant facility harness: the shared machine under tenant
// schedules (src/facility/), exercising the sharded metadata service
// and the elastic placement ladder. Emits BENCH_facility.json.
//
// Scenarios:
//   - mds_storm      64 file-per-process tenants (1 node / 12 ranks
//                    each) slam the shared FS with a create storm on a
//                    16-node facility. Serialized single-MDS vs the
//                    hash-partitioned 8-shard service: the storm
//                    serializes at one queue in the former, spreads
//                    over the shards in the latter.
//   - slo_ladder     12 Damaris tenants share 12 data servers at ~70%
//                    aggregate utilization. The static policy counts
//                    SLO violations but never re-tiers; the elastic
//                    ladder escalates dedicated core -> dedicated node
//                    -> staging tier until each tenant's observed p95
//                    write time sits under its SLO.
//   - determinism    the elastic ladder scenario repeated: identical
//                    specs must give a byte-identical metrics block.
//   - single_parity  a 1-tenant facility (arrival 0, default
//                    placement) must replay the exact run_strategy()
//                    timeline for the same RunConfig.
//
// Usage: bench_facility [output.json] [--check]
//   --check exits nonzero unless sharded MDS gives >= 2x aggregate
//   throughput on the storm, the elastic ladder holds the SLO where
//   static fails, runs are deterministic and the single-tenant parity
//   fingerprint matches (used by scripts/check.sh --facility).
#include <cstdio>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "bench_util.hpp"
#include "experiments/experiments.hpp"
#include "facility/facility.hpp"
#include "strategies/strategy.hpp"

namespace {

using namespace dmr;

constexpr std::uint64_t kSeed = 2012;  // the canonical experiment seed

std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

// ----------------------------------------------------------- mds_storm

// 64 single-node file-per-process tenants arriving at once on a
// 16-node facility: four admission waves of 16 resident tenants, each
// rank creating its own file every phase. Small payloads and a
// saturated MDS (50 ms per create, the regime of a Lustre MDS at the
// far end of a create storm) keep the run metadata-bound, which is
// what the sharded service exists for.
constexpr int kStormTenants = 64;
constexpr int kStormFacilityNodes = 16;
constexpr int kStormIterations = 4;
constexpr int kStormShards = 16;

struct StormOutcome {
  double aggregate = 0.0;  // facility bytes / makespan
  double makespan = 0.0;
  double fairness = 0.0;
  double mds_busy_max = 0.0;  // busiest metadata shard, seconds
  int peak_resident = 0;
  std::uint64_t creates = 0;
  std::uint64_t replica_reads = 0;
};

facility::FacilitySpec storm_spec(bool sharded) {
  strategies::RunConfig base = experiments::kraken_config(
      strategies::StrategyKind::kFilePerProcess, 12, kStormIterations,
      /*write_interval=*/1, /*iteration_seconds=*/0.05, kSeed);
  base.workload.bytes_per_point = 4.0;  // ~1.5 MB/rank: creates dominate

  facility::FacilitySpec spec;
  spec.platform_spec = base.platform;
  spec.platform_spec.fs.metadata_create_cost = 50e-3;  // saturated MDS
  spec.platform_spec.fs.metadata =
      sharded ? cluster::MetadataModel::kSharded
              : cluster::MetadataModel::kSerializedSingleServer;
  spec.platform_spec.fs.mds_shards = kStormShards;
  spec.platform_spec.fs.mds_replicas = sharded ? 2 : 1;
  spec.facility_nodes = kStormFacilityNodes;
  spec.facility_seed = kSeed;
  for (int i = 0; i < kStormTenants; ++i) {
    facility::TenantSpec t;
    t.tenant_id = i;
    t.display_name = "storm-" + std::to_string(i);
    t.arrival_time = 0.0;
    t.base_run = base;
    t.base_run.seed = kSeed + static_cast<std::uint64_t>(i);
    spec.tenant_specs.push_back(std::move(t));
  }
  return spec;
}

StormOutcome run_storm(bool sharded) {
  facility::Facility fac(storm_spec(sharded));
  const facility::FacilityOutcome out = fac.run();
  StormOutcome o;
  o.aggregate = out.aggregate_bandwidth;
  o.makespan = out.makespan;
  o.fairness = out.fairness_index;
  for (const SimTime busy : out.mds_shard_busy) {
    o.mds_busy_max = std::max(o.mds_busy_max, busy);
  }
  o.peak_resident = out.peak_resident;
  o.creates = out.facility_fs_stats.creates;
  o.replica_reads = out.facility_fs_stats.mds_replica_reads;
  return o;
}

// ---------------------------------------------------------- slo_ladder

// 12 Damaris tenants, one node each, all resident on a 12-node
// facility whose 12 data servers run at ~70% aggregate demand: the
// shared tier cannot hold a 0.35 s p95 write SLO. trip=2 / clear=50
// walks every violating tenant up the ladder and keeps it there; the
// 16 GiB/s staging buffer absorbs a full 12-tenant pile-up in ~0.2 s.
constexpr int kLadderTenants = 12;
constexpr int kLadderPhases = 16;
constexpr double kLadderSlo = 0.35;       // p95 write seconds
constexpr int kLadderWarmupPhases = 8;    // ladder converges within these

struct LadderOutcome {
  double steady_p95_max = 0.0;  // worst tenant p95, steady-state window
  double steady_p95_mean = 0.0;
  std::uint64_t violations = 0;
  std::uint64_t escalations = 0;
  std::uint64_t recoveries = 0;
  int tenants_in_staging = 0;
  double aggregate = 0.0;
  double fairness = 0.0;
};

facility::FacilitySpec ladder_spec(facility::PolicyKind policy) {
  strategies::RunConfig base = experiments::kraken_config(
      strategies::StrategyKind::kDamaris, 12, kLadderPhases,
      /*write_interval=*/1, /*iteration_seconds=*/1.0, kSeed);

  facility::FacilitySpec spec;
  spec.platform_spec = base.platform;
  spec.platform_spec.fs.data_servers = 12;
  spec.facility_nodes = kLadderTenants;
  spec.facility_seed = kSeed;
  spec.placement_spec.policy = policy;
  spec.placement_spec.slo_p95_seconds = kLadderSlo;
  spec.placement_spec.trip_phases = 2;
  spec.placement_spec.clear_phases = 50;  // no recovery within the run
  spec.placement_spec.staging_bandwidth = 16.0 * static_cast<double>(GiB);
  spec.placement_spec.group_servers = 1;  // one reserved server each
  for (int i = 0; i < kLadderTenants; ++i) {
    facility::TenantSpec t;
    t.tenant_id = i;
    t.display_name = "app-" + std::to_string(i);
    t.arrival_time = 0.3 * i;  // staggered submissions
    t.base_run = base;
    t.base_run.seed = kSeed + static_cast<std::uint64_t>(i);
    spec.tenant_specs.push_back(std::move(t));
  }
  return spec;
}

LadderOutcome run_ladder(facility::PolicyKind policy) {
  facility::Facility fac(ladder_spec(policy));
  const facility::FacilityOutcome out = fac.run();
  LadderOutcome o;
  double p95_sum = 0.0;
  for (const facility::TenantOutcome& t : out.tenant_outcomes) {
    Sample steady;
    for (std::size_t p = kLadderWarmupPhases; p < t.phase_write_log.size();
         ++p) {
      steady.add(t.phase_write_log[p]);
    }
    const double p95 = steady.count() > 0 ? steady.percentile(95.0) : 0.0;
    o.steady_p95_max = std::max(o.steady_p95_max, p95);
    p95_sum += p95;
    o.violations += t.slo_violations;
    if (t.final_tier == facility::Tier::kStagingTier) ++o.tenants_in_staging;
  }
  o.steady_p95_mean =
      out.tenant_outcomes.empty()
          ? 0.0
          : p95_sum / static_cast<double>(out.tenant_outcomes.size());
  o.escalations = out.ladder_escalations;
  o.recoveries = out.ladder_recoveries;
  o.aggregate = out.aggregate_bandwidth;
  o.fairness = out.fairness_index;
  return o;
}

// ------------------------------------------------------- single_parity

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

struct ParityOutcome {
  bool match = false;
  double solo_runtime = 0.0;
  double facility_runtime = 0.0;
};

ParityOutcome run_parity() {
  const strategies::RunConfig cfg = experiments::kraken_config(
      strategies::StrategyKind::kDamaris, 24, /*iterations=*/8,
      /*write_interval=*/2, /*iteration_seconds=*/4.1, kSeed);
  const strategies::RunResult solo = strategies::run_strategy(cfg);

  facility::FacilitySpec spec;
  spec.platform_spec = cfg.platform;
  spec.facility_nodes = cfg.num_nodes;
  spec.facility_seed = cfg.seed;
  facility::TenantSpec t;
  t.tenant_id = 0;
  t.display_name = "solo";
  t.base_run = cfg;
  spec.tenant_specs.push_back(std::move(t));
  facility::Facility fac(spec);
  const facility::FacilityOutcome out = fac.run();

  ParityOutcome o;
  o.solo_runtime = solo.total_runtime;
  if (out.tenant_outcomes.size() == 1) {
    const strategies::RunResult& hosted = out.tenant_outcomes[0].run_result;
    o.facility_runtime = hosted.total_runtime;
    o.match = fingerprint(solo) == fingerprint(hosted);
  }
  return o;
}

// --------------------------------------------------------------- json

std::string storm_json(const StormOutcome& o) {
  std::string j = "{";
  j += "\"aggregate_gib_s\": " +
       json_num(o.aggregate / static_cast<double>(GiB));
  j += ", \"makespan_s\": " + json_num(o.makespan);
  j += ", \"fairness\": " + json_num(o.fairness);
  j += ", \"mds_busy_max_s\": " + json_num(o.mds_busy_max);
  j += ", \"peak_resident\": " + std::to_string(o.peak_resident);
  j += ", \"creates\": " + std::to_string(o.creates);
  j += ", \"mds_replica_reads\": " + std::to_string(o.replica_reads);
  j += "}";
  return j;
}

std::string ladder_json(const LadderOutcome& o) {
  std::string j = "{";
  j += "\"steady_p95_max_s\": " + json_num(o.steady_p95_max);
  j += ", \"steady_p95_mean_s\": " + json_num(o.steady_p95_mean);
  j += ", \"slo_violations\": " + std::to_string(o.violations);
  j += ", \"escalations\": " + std::to_string(o.escalations);
  j += ", \"recoveries\": " + std::to_string(o.recoveries);
  j += ", \"tenants_in_staging\": " + std::to_string(o.tenants_in_staging);
  j += ", \"aggregate_gib_s\": " +
       json_num(o.aggregate / static_cast<double>(GiB));
  j += ", \"fairness\": " + json_num(o.fairness);
  j += "}";
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_facility.json";
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else {
      out_path = argv[i];
    }
  }
  bench::banner(
      "bench_facility: tenant schedules, sharded MDS, elastic placement",
      "multi-tenant facility layer over the paper's shared-machine model",
      "sharding absorbs the create storm; the ladder holds the p95 SLO");

  const StormOutcome storm_serial = run_storm(/*sharded=*/false);
  const StormOutcome storm_shard = run_storm(/*sharded=*/true);
  const double storm_gain =
      storm_serial.aggregate > 0.0
          ? storm_shard.aggregate / storm_serial.aggregate
          : 0.0;
  std::printf("mds storm (%d file-per-process tenants, %d-node facility):\n",
              kStormTenants, kStormFacilityNodes);
  std::printf("  serialized MDS  %7.2f GiB/s  makespan %7.2f s  "
              "mds busy %6.2f s\n",
              storm_serial.aggregate / static_cast<double>(GiB),
              storm_serial.makespan, storm_serial.mds_busy_max);
  std::printf("  sharded x%d     %7.2f GiB/s  makespan %7.2f s  "
              "busiest shard %6.2f s  replica reads %llu\n",
              kStormShards, storm_shard.aggregate / static_cast<double>(GiB),
              storm_shard.makespan, storm_shard.mds_busy_max,
              static_cast<unsigned long long>(storm_shard.replica_reads));
  std::printf("  sharding gain: %.2fx\n", storm_gain);

  const LadderOutcome ladder_static =
      run_ladder(facility::PolicyKind::kStatic);
  const LadderOutcome ladder_elastic =
      run_ladder(facility::PolicyKind::kElastic);
  std::printf("slo ladder (%d damaris tenants, %.2f s p95 SLO, "
              "steady-state = phases %d..%d):\n",
              kLadderTenants, kLadderSlo, kLadderWarmupPhases,
              kLadderPhases - 1);
  std::printf("  static   p95 max %6.3f s  violations %llu\n",
              ladder_static.steady_p95_max,
              static_cast<unsigned long long>(ladder_static.violations));
  std::printf("  elastic  p95 max %6.3f s  violations %llu  "
              "escalations %llu  in staging %d/%d\n",
              ladder_elastic.steady_p95_max,
              static_cast<unsigned long long>(ladder_elastic.violations),
              static_cast<unsigned long long>(ladder_elastic.escalations),
              ladder_elastic.tenants_in_staging, kLadderTenants);

  // Determinism probe: the elastic ladder scenario, repeated, must
  // produce a byte-identical metrics block.
  const LadderOutcome ladder_elastic2 =
      run_ladder(facility::PolicyKind::kElastic);
  const bool deterministic =
      ladder_json(ladder_elastic) == ladder_json(ladder_elastic2);

  const ParityOutcome parity = run_parity();
  std::printf("single-tenant parity: %s (solo %.2f s, hosted %.2f s)   "
              "deterministic: %s\n",
              parity.match ? "ok" : "MISMATCH", parity.solo_runtime,
              parity.facility_runtime, deterministic ? "yes" : "NO");

  std::string json = "{\n  \"schema\": \"dmr-bench-facility-v1\",\n";
  json += "  \"storm_serialized\": " + storm_json(storm_serial) + ",\n";
  json += "  \"storm_sharded\": " + storm_json(storm_shard) + ",\n";
  json += "  \"storm_gain\": " + json_num(storm_gain) + ",\n";
  json += "  \"ladder_static\": " + ladder_json(ladder_static) + ",\n";
  json += "  \"ladder_elastic\": " + ladder_json(ladder_elastic) + ",\n";
  json += "  \"ladder_slo_s\": " + json_num(kLadderSlo) + ",\n";
  json += std::string("  \"deterministic\": ") +
          (deterministic ? "true" : "false") + ",\n";
  json += std::string("  \"single_tenant_parity\": ") +
          (parity.match ? "true" : "false") + "\n}\n";

  if (!bench::write_file(out_path, json)) return 2;
  std::printf("\nwrote %s\n", out_path.c_str());

  if (check) {
    int rc = 0;
    const auto expect = [&rc](bool cond, const char* what) {
      if (!cond) {
        std::fprintf(stderr, "CHECK FAILED: %s\n", what);
        rc = 1;
      }
    };
    expect(storm_gain >= 2.0,
           "sharded MDS gives >= 2x aggregate throughput on the storm");
    expect(storm_shard.replica_reads > 0,
           "read replicas actually served traffic");
    expect(ladder_static.steady_p95_max > kLadderSlo,
           "the static policy fails the p95 SLO on the shared tier");
    expect(ladder_elastic.steady_p95_max <= kLadderSlo,
           "the elastic ladder holds the p95 SLO in steady state");
    expect(ladder_elastic.escalations > 0, "the ladder actually escalated");
    expect(deterministic, "identical seed gives identical results");
    expect(parity.match,
           "a 1-tenant facility replays the run_strategy timeline");
    std::printf("facility check: %s\n", rc == 0 ? "PASS" : "FAIL");
    return rc;
  }
  return 0;
}
