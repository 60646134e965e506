#include "monitor/node_source.hpp"

#include "common/stats.hpp"

namespace dmr::monitor {

MonitorSnapshot snapshot_of(core::DamarisNode& node,
                            const NodeSourceOptions& opts) {
  MonitorSnapshot snap;
  snap.source = opts.label;

  const core::ServerStats stats = node.stats();
  snap.iterations = static_cast<std::int64_t>(stats.iterations.size());
  snap.shards = stats.shards;
  snap.clients = node.num_clients();
  snap.spare_fraction = stats.spare_fraction();
  snap.stages = stats.stages;

  Sample write_seconds;
  double plugin_total = 0.0;
  for (const core::IterationRecord& rec : stats.iterations) {
    write_seconds.add(rec.write_seconds);
    plugin_total += rec.plugin_seconds;
  }
  snap.write_jitter = trace::JitterSummary::of(write_seconds);
  snap.plugin_seconds = plugin_total;

  snap.degrade_mode = fault::degrade_mode_name(node.degrade_mode());
  snap.degrade = stats.degrade;

  if (opts.checker != nullptr) {
    snap.ledger_valid = true;
    snap.ledger = opts.checker->snapshot();
  }

  snap.plugins = node.plugin_stats();
  return snap;
}

MonitorServer::SnapshotFn node_snapshot_fn(core::DamarisNode& node,
                                           NodeSourceOptions opts) {
  return [&node, opts]() { return snapshot_of(node, opts); };
}

}  // namespace dmr::monitor
