// Snapshot assembly from a live DamarisNode — the glue between the
// middleware and the monitor (kept here so core/ never depends on
// monitor/). The SnapshotFn this produces is what MonitorServer polls:
// every call reads the node's thread-safe accessors (stats(),
// degrade_mode(), plugin_stats(), an optional FaultChecker's live
// counters) and derives the JitterSummary percentiles over the
// per-iteration persist times.
//
// Thread-safety: the returned closure may be called from the monitor's
// loop thread while the node runs; everything it touches is a
// mutex-guarded or atomic snapshot. The node (and checker) must outlive
// the server.
#pragma once

#include <string>

#include "check/fault_checker.hpp"
#include "core/damaris.hpp"
#include "monitor/server.hpp"
#include "monitor/snapshot.hpp"

namespace dmr::monitor {

struct NodeSourceOptions {
  /// The snapshot's `source` label.
  std::string label = "damaris";
  /// Live fault-ledger counters (nullptr leaves the ledger null on the
  /// wire). Not owned; must outlive the server.
  check::FaultChecker* checker = nullptr;
};

/// One snapshot of `node`, now. sequence/uptime/alerts are left for the
/// server to stamp.
MonitorSnapshot snapshot_of(core::DamarisNode& node,
                            const NodeSourceOptions& opts = {});

/// A SnapshotFn over `node` for MonitorServer's constructor.
MonitorServer::SnapshotFn node_snapshot_fn(core::DamarisNode& node,
                                           NodeSourceOptions opts = {});

}  // namespace dmr::monitor
