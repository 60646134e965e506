// The Damaris configuration model (paper §III-B "Configuration file").
//
// The external XML file carries the static description of the data —
// layouts (type, dimensions), variables bound to layouts, and events
// bound to actions — so that clients only push minimal descriptors
// through shared memory and the dedicated core retains full knowledge of
// incoming datasets.
//
// Example (the paper's Fortran example, §III-D):
//
//   <damaris>
//     <buffer size="67108864" policy="partitioned"/>
//     <dedicated cores="1"/>
//     <layout name="my_layout" type="real" dimensions="64,16,2"
//             language="fortran"/>
//     <variable name="my_variable" layout="my_layout"/>
//     <event name="my_event" action="do_something"
//            using="my_plugin" scope="local"/>
//   </damaris>
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"
#include "config/xml.hpp"
#include "fault/degrade.hpp"
#include "fault/fault.hpp"
#include "format/types.hpp"
#include "sched/slot_scheduler.hpp"

namespace dmr::config {

struct LayoutDecl {
  std::string name;
  format::Layout layout;
  /// Fortran layouts list dimensions fastest-first; we record the flag
  /// and keep dims as declared.
  bool fortran_order = false;
};

struct VariableDecl {
  std::string name;
  std::string layout_name;
  /// Optional codec pipeline applied by the persistency layer:
  /// "" (none), "lossless" or "visualization".
  std::string pipeline;
};

struct EventDecl {
  std::string name;
  std::string action;   // function to invoke
  std::string plugin;   // plugin providing it ("" = builtin)
  std::string scope;    // "local" (per node) or "global"
};

/// A steerable runtime parameter (the "Inline Steering" of the Damaris
/// acronym): declared with an initial value in the configuration,
/// readable by clients every iteration and writable by plugins or
/// external tools through the node.
struct ParameterDecl {
  std::string name;
  std::string value;  // initial value, as text
};

/// §IV-D write-scheduling knobs from the <scheduling> section. `alpha`
/// is the EMA smoothing factor shared by the static SlotScheduler's
/// interval estimate and the adaptive controller's load estimates;
/// parse-time validated to (0, 1]. `adaptive` selects the trace-fed
/// adaptive controller (sched/adaptive.hpp) over static uniform slots
/// in harnesses that build a simulated run from this configuration.
struct SchedulingConfig {
  double alpha = sched::kDefaultAlpha;
  bool adaptive = false;
};

/// One in-situ plugin instance from the <plugins> section (paper §III-C:
/// analytics running on the dedicated core's spare time). `type` names
/// one of the builtins plugin::build_pipeline() creates ("statistics",
/// "minmax_index", "downsample"); custom analytics are event actions.
struct PluginDecl {
  std::string name;                    // unique instance name
  std::string type;                    // builtin plugin type
  std::vector<std::string> variables;  // filter; empty = every variable
  int stride = 4;                      // downsampler decimation factor
};

/// The <plugins> section: the in-situ pipeline run by the dedicated core
/// between publish and persist. `budget_ms` is the per-iteration
/// wall-clock budget for the whole chain (0 = unlimited — the Fig 5
/// idle-time claim is enforced by bench_plugin, not per-run); plugins
/// that cross it are counted as overruns. `on_error` / `on_overrun`
/// select what happens to the offending plugin: "warn" keeps it
/// running, "disable" drops it from the chain for the rest of the run.
struct PluginsConfig {
  double budget_ms = 0.0;
  std::string on_error = "warn";
  std::string on_overrun = "warn";
  std::vector<PluginDecl> plugins;

  bool empty() const { return plugins.empty(); }
};

/// The <monitor> section: the live observability endpoint
/// (monitor::MonitorServer) streaming snapshots over a local socket.
/// SLO thresholds are in milliseconds over the per-iteration persist
/// wall time; 0 disables the corresponding alert.
struct MonitorConfig {
  bool enabled = false;
  std::string socket;    // AF_UNIX socket path (required when enabled)
  int interval_ms = 100; // default subscribe streaming interval
  double slo_p95_ms = 0.0;
  double slo_max_ms = 0.0;
};

/// One <tenant> of the facility's <tenants> list: an application the
/// facility admits at `arrival` onto `nodes` machine nodes.
struct FacilityTenantDecl {
  int id = 0;
  std::string name;          // display name; defaults to "tenant-<id>"
  double arrival = 0.0;      // simulated admission request time, seconds
  int nodes = 1;             // contiguous node slice the tenant needs
  std::string strategy = "damaris";  // strategies::strategy_name() value
  int iterations = 8;
  double slo_p95_ms = 0.0;   // per-tenant p95 SLO; 0 inherits <placement>
};

/// The facility's <placement> section: the elastic resource ladder
/// (dedicated core -> dedicated node -> staging tier).
struct FacilityPlacementDecl {
  std::string policy = "static";  // "static" | "elastic"
  double slo_p95_ms = 0.0;        // default p95 SLO over write phases
  int trip = 2;                   // violating phases before escalating
  int clear = 3;                  // clean phases before recovering
  double staging_gib_s = 8.0;     // staging-tier absorption bandwidth
  int group_servers = 8;          // data servers per reserved slice
};

/// The <facility> section: a multi-tenant run sharing one machine, with
/// the sharded metadata service and the placement-policy engine
/// (DESIGN.md §16). `declared` distinguishes "no section" from an
/// explicit empty one.
struct FacilityConfig {
  bool declared = false;
  int nodes = 8;
  std::uint64_t seed = 1;
  std::string mds_model = "serialized";  // "serialized" | "sharded"
  int mds_shards = 8;
  int mds_replicas = 1;
  FacilityPlacementDecl placement;
  std::vector<FacilityTenantDecl> tenants;
};

/// Parsed, validated configuration.
class Config {
 public:
  /// Parses a document string; validates cross-references.
  static Result<Config> from_string(const std::string& xml);
  static Result<Config> from_file(const std::string& path);

  Bytes buffer_size() const { return buffer_size_; }
  /// "firstfit" or "partitioned".
  const std::string& buffer_policy() const { return buffer_policy_; }
  int dedicated_cores() const { return dedicated_cores_; }

  const std::map<std::string, LayoutDecl>& layouts() const {
    return layouts_;
  }
  const std::map<std::string, VariableDecl>& variables() const {
    return variables_;
  }
  const std::map<std::string, EventDecl>& events() const { return events_; }
  const std::map<std::string, ParameterDecl>& parameters() const {
    return parameters_;
  }

  const LayoutDecl* find_layout(const std::string& name) const;
  const VariableDecl* find_variable(const std::string& name) const;
  const EventDecl* find_event(const std::string& name) const;

  /// Layout of a variable (resolves the reference); nullptr if unknown.
  const format::Layout* layout_of(const std::string& variable) const;

  /// Seeded fault schedule from the <fault> section; empty() when the
  /// configuration injects nothing. Always valid (validate() OK) —
  /// malformed plans are rejected at parse time.
  const fault::FaultPlan& fault_plan() const { return fault_plan_; }

  /// Retry/degraded-mode policies from the <resilience> section;
  /// defaults (retries disabled, no fallbacks) when absent.
  const fault::ResilienceConfig& resilience() const { return resilience_; }

  /// Write-scheduling knobs from the <scheduling> section; defaults
  /// (alpha 0.3, static slots) when absent.
  const SchedulingConfig& scheduling() const { return scheduling_; }

  /// In-situ plugin chain from the <plugins> section; empty() when the
  /// configuration declares none (the node takes the exact plugin-less
  /// iteration path).
  const PluginsConfig& plugins() const { return plugins_; }

  /// Live-monitoring endpoint from the <monitor> section; disabled by
  /// default.
  const MonitorConfig& monitor() const { return monitor_; }

  /// Multi-tenant facility description from the <facility> section;
  /// `declared` is false when the configuration has none.
  const FacilityConfig& facility() const { return facility_; }

 private:
  static Result<Config> from_xml(const XmlNode& root);

  Bytes buffer_size_ = 64 * MiB;
  std::string buffer_policy_ = "firstfit";
  int dedicated_cores_ = 1;
  std::map<std::string, LayoutDecl> layouts_;
  std::map<std::string, VariableDecl> variables_;
  std::map<std::string, EventDecl> events_;
  std::map<std::string, ParameterDecl> parameters_;
  fault::FaultPlan fault_plan_;
  fault::ResilienceConfig resilience_;
  SchedulingConfig scheduling_;
  PluginsConfig plugins_;
  MonitorConfig monitor_;
  FacilityConfig facility_;
};

}  // namespace dmr::config
