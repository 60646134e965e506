// MonitorSnapshot — one observation of a running node, and its wire
// rendering (DESIGN.md §15 "wire protocol").
//
// A snapshot is everything the monitoring protocol streams per tick:
// iteration progress and the dedicated core's spare fraction,
// JitterReport percentiles over the per-iteration persist times, the
// degrade-FSM state, the fault-ledger counter totals, per-stage
// PipelineStats, the per-plugin utilization table, and any SLO alerts
// the server attached.
//
// to_json() is the wire format: ONE line, stable field order, %.6g
// numbers — a deterministic workload yields byte-comparable snapshots
// (modulo the wall-clock fields), and the client/dmr_top parse it back
// with monitor::Json.
//
// Thread-safety: plain value type; assembly from a live node is
// node_source.hpp's job.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/fault_checker.hpp"
#include "fault/degrade.hpp"
#include "iopath/metrics.hpp"
#include "plugin/plugin.hpp"
#include "trace/jitter_report.hpp"

namespace dmr::monitor {

/// One row of the facility's per-tenant table: identity, current
/// placement-ladder tier, the tenant's live jitter percentile, bytes
/// stored so far and the SLO state ("none" | "ok" | "hot").
struct TenantRow {
  int id = 0;
  std::string name;
  std::string tier;
  double p95_seconds = 0.0;
  std::uint64_t bytes = 0;
  std::string slo = "none";
};

struct MonitorSnapshot {
  /// Monotonic per-server snapshot number (set by the server).
  std::int64_t sequence = 0;
  /// Wall seconds since the server started (set by the server).
  double uptime_seconds = 0.0;
  /// Free-form label of the workload ("facility", a node id, ...).
  std::string source;

  // --- progress ---
  std::int64_t iterations = 0;  // completed iteration records
  int shards = 1;
  int clients = 0;
  double spare_fraction = 0.0;  // the paper's Fig 5 idle fraction

  // --- jitter (percentiles over per-iteration persist wall seconds) ---
  trace::JitterSummary write_jitter;

  // --- degrade FSM ---
  std::string degrade_mode;  // "normal" | "sync" | "drop"
  fault::DegradeStats degrade;

  // --- fault ledger (live totals; verdicts only exist at finalize) ---
  bool ledger_valid = false;  // false when no FaultChecker is attached
  check::FaultChecker::Counters ledger;

  // --- write-path stage counters ---
  iopath::PipelineStats stages;

  // --- in-situ plugins ---
  double plugin_seconds = 0.0;  // chain total
  std::vector<plugin::PluginStats> plugins;

  // --- multi-tenant facility (empty outside facility runs) ---
  std::vector<TenantRow> tenants;

  // --- alerts (filled by the server from its SLO policy) ---
  std::vector<std::string> alerts;

  /// The wire rendering: one line, no trailing newline.
  std::string to_json() const;
};

/// SLO thresholds the server applies to every snapshot it emits.
/// Milliseconds over the per-iteration persist wall time; 0 disables.
struct SloPolicy {
  double p95_ms = 0.0;
  double max_ms = 0.0;
};

/// Threshold evaluation, separated from the server so tests can pin it:
/// returns human-readable alert strings ("slo: write p95 12.4ms >
/// 10ms", ...); empty when within budget or the policy is disabled.
std::vector<std::string> evaluate_slo(const MonitorSnapshot& snap,
                                      const SloPolicy& slo);

}  // namespace dmr::monitor
