// Event actions (paper §III-C "Behavior management and user-defined
// actions").
//
// An action is a function the event processing engine calls in response
// to an event sent by the simulation (df_signal) or by an external tool.
// The original loads them from shared objects or Python; here they are
// registered callables — the same extension point without a dynamic
// loader. An action reads the same plugin::BlockViews the <plugins>
// chain reads (plugin/plugin.hpp); the builtin "stats" action is the
// statistics plugin run over them.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "plugin/plugin.hpp"

namespace dmr::core {

class DamarisNode;

/// Everything an action may touch when it runs on the dedicated core.
struct EventContext {
  DamarisNode& node;
  std::string event_name;
  std::int64_t iteration = 0;
  int source = -1;  // client that signalled (or -1 for group events)
  int shard = 0;    // which dedicated core is running this action
  /// The iteration's blocks on this shard so far, in (variable, source)
  /// order. `data` points into shared memory until the iteration is
  /// persisted (the "write" action frees it).
  std::vector<plugin::BlockView> blocks;
};

using PluginFn = std::function<void(EventContext&)>;

class PluginRegistry {
 public:
  /// Registers (or replaces) an action under `name`.
  void register_action(const std::string& name, PluginFn fn);

  /// nullptr when unknown.
  const PluginFn* find(const std::string& name) const;

 private:
  std::map<std::string, PluginFn> actions_;
};

}  // namespace dmr::core
