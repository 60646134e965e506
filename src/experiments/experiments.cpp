#include "experiments/experiments.hpp"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

#include "cm1/workload.hpp"

namespace dmr::experiments {

using strategies::RunConfig;
using strategies::StrategyKind;

std::vector<int> kraken_scales() { return {576, 1152, 2304, 4608, 9216}; }

RunConfig kraken_config(StrategyKind kind, int cores, int iterations,
                        int write_interval, SimTime iteration_seconds,
                        std::uint64_t seed) {
  RunConfig cfg;
  cfg.platform = cluster::kraken();
  assert(cores % cfg.platform.node.cores == 0);
  cfg.num_nodes = cores / cfg.platform.node.cores;
  cfg.kind = kind;
  cfg.iterations = iterations;
  cfg.workload = cm1::kraken_workload(kind == StrategyKind::kDamaris,
                                      iteration_seconds);
  cfg.workload.write_interval = write_interval;
  cfg.seed = seed;
  return cfg;
}

RunConfig grid5000_config(StrategyKind kind, int cores, int iterations,
                          int write_interval, std::uint64_t seed) {
  RunConfig cfg;
  cfg.platform = cluster::grid5000();
  assert(cores % cfg.platform.node.cores == 0);
  cfg.num_nodes = cores / cfg.platform.node.cores;
  cfg.kind = kind;
  cfg.iterations = iterations;
  cfg.workload = cm1::grid5000_workload(kind == StrategyKind::kDamaris);
  cfg.workload.write_interval = write_interval;
  cfg.seed = seed;
  return cfg;
}

RunConfig blueprint_config(StrategyKind kind, int cores, int iterations,
                           int write_interval, double bytes_per_point,
                           std::uint64_t seed) {
  RunConfig cfg;
  cfg.platform = cluster::blueprint();
  assert(cores % cfg.platform.node.cores == 0);
  cfg.num_nodes = cores / cfg.platform.node.cores;
  cfg.kind = kind;
  cfg.iterations = iterations;
  cfg.workload = cm1::blueprint_workload(kind == StrategyKind::kDamaris,
                                         bytes_per_point);
  cfg.workload.write_interval = write_interval;
  cfg.seed = seed;
  return cfg;
}

facility::FacilitySpec facility_storm_spec(int tenants, bool sharded) {
  RunConfig base = kraken_config(StrategyKind::kFilePerProcess, 12,
                                 /*iterations=*/4, /*write_interval=*/1,
                                 /*iteration_seconds=*/0.05, 2012);
  base.workload.bytes_per_point = 4.0;  // ~1.5 MB/rank: creates dominate

  facility::FacilitySpec spec;
  spec.platform_spec = base.platform;
  spec.platform_spec.fs.metadata_create_cost = 50e-3;  // saturated MDS
  spec.platform_spec.fs.metadata =
      sharded ? cluster::MetadataModel::kSharded
              : cluster::MetadataModel::kSerializedSingleServer;
  spec.platform_spec.fs.mds_shards = 16;
  spec.platform_spec.fs.mds_replicas = sharded ? 2 : 1;
  spec.facility_nodes = 16;
  spec.facility_seed = 2012;
  for (int i = 0; i < tenants; ++i) {
    facility::TenantSpec t;
    t.tenant_id = i;
    t.display_name = "storm-" + std::to_string(i);
    t.base_run = base;
    t.base_run.seed = base.seed + static_cast<std::uint64_t>(i);
    spec.tenant_specs.push_back(std::move(t));
  }
  return spec;
}

double breakeven_io_percent(int cores_per_node) {
  assert(cores_per_node > 1);
  return 100.0 / static_cast<double>(cores_per_node - 1);
}

double dedicated_core_margin(double w_std, double c_std, int cores_per_node,
                             double w_ded) {
  const double n = static_cast<double>(cores_per_node);
  const double c_ded = c_std * n / (n - 1.0);
  return (w_std + c_std) - std::max(c_ded, w_ded);
}

bool dedicated_core_beneficial(double w_std, double c_std,
                               int cores_per_node) {
  const double n = static_cast<double>(cores_per_node);
  return dedicated_core_margin(w_std, c_std, cores_per_node, n * w_std) > 0;
}

}  // namespace dmr::experiments
