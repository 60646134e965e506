// In-situ analytics plugins (paper §IV-C3 "using spare time"): the
// paper's pitch for the dedicated core is that it idles 75–99% of the
// time (Fig 5) and should spend that budget on user analytics instead
// of burning a core on pure I/O.
//
// A BlockPlugin consumes *published* variable blocks: the dedicated
// core hands every block of a completed iteration to the plugin chain
// after the clients published them and before the persistency layer
// writes them out (the only window where the data is complete, still in
// shared memory, and the clients are already computing the next
// iteration — so plugin time is invisible to the simulation as long as
// it fits the idle budget). Event actions (core/plugin.hpp, the
// df_signal handlers) read the same BlockViews when their event fires;
// the builtin "stats" action is StatisticsPlugin run over them.
// Analytics that fit none of the three builtin types are written as
// actions.
//
// Thread-safety: a plugin instance is driven by PluginPipeline
// (pipeline.hpp), which serializes all calls under its own mutex;
// plugins themselves need no internal synchronization.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>

#include "common/status.hpp"
#include "common/units.hpp"
#include "format/types.hpp"

namespace dmr::plugin {

/// Read-only view over one published variable block. `data` points into
/// shared memory and is valid only for the duration of the call;
/// plugins that keep results copy what they need.
struct BlockView {
  std::string_view variable;
  std::int64_t iteration = 0;
  int source = -1;  // client id that published the block
  const format::Layout* layout = nullptr;
  std::span<const std::byte> data;
};

/// What a plugin may touch while running on the dedicated core.
/// publish() lands in the node's analytics map (DamarisNode::
/// analytics(), keyed "<variable>.<stat>") where steering code and the
/// monitor pick it up.
struct PluginContext {
  int shard = 0;
  std::function<void(const std::string& key, double value)> publish;
};

/// One in-situ analytics stage. process_block() is called once per
/// published block (already filtered by the instance's variable list);
/// end_iteration() once after all blocks of the iteration, for plugins
/// that aggregate across sources. Both return Status — errors are
/// counted per plugin and handled by the pipeline's on_error policy;
/// exceptions are caught and treated as internal errors.
class BlockPlugin {
 public:
  virtual ~BlockPlugin() = default;

  /// The instance name (from the <plugin name=...> declaration).
  virtual const std::string& name() const = 0;

  virtual Status process_block(const BlockView& block, PluginContext& ctx) = 0;

  virtual Status end_iteration(std::int64_t iteration, PluginContext& ctx) {
    (void)iteration;
    (void)ctx;
    return Status::ok();
  }
};

/// Per-plugin wall-clock accounting — the numbers behind the Fig 5
/// idle-budget claim (NodePlugins.ChainFitsTheIdleBudget) and the
/// monitor's plugin table.
struct PluginStats {
  std::string name;
  std::uint64_t iterations = 0;  // iterations this plugin ran in
  std::uint64_t blocks = 0;      // blocks processed
  Bytes bytes = 0;               // payload bytes seen
  double seconds = 0.0;          // total wall time on the dedicated core
  double max_iteration_seconds = 0.0;
  std::uint64_t errors = 0;    // non-OK statuses + caught exceptions
  std::uint64_t overruns = 0;  // iterations where this plugin crossed
                               // the chain's remaining budget
  bool disabled = false;       // dropped by on_error/on_overrun=disable
};

/// Interprets one element of `type` at `p` as a double (integral types
/// are converted exactly up to 2^53). The canonical numeric bridge used
/// by the builtin plugins.
double element_as_double(format::DataType type, const std::byte* p);

}  // namespace dmr::plugin
