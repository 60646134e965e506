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
//
// The example's `language` and `using` attributes are accepted and
// ignored: dimensions are kept as declared, and an action is resolved by
// name among the builtin and registered ones.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"
#include "config/xml.hpp"
#include "fault/degrade.hpp"
#include "fault/fault.hpp"
#include "format/types.hpp"

namespace dmr::config {

struct LayoutDecl {
  std::string name;
  format::Layout layout;
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
/// idle-time claim is enforced by a test, not per-run); plugins
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

  /// In-situ plugin chain from the <plugins> section; empty() when the
  /// configuration declares none (the node takes the exact plugin-less
  /// iteration path).
  const PluginsConfig& plugins() const { return plugins_; }

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
  PluginsConfig plugins_;
};

}  // namespace dmr::config
