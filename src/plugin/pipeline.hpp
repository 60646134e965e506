// PluginPipeline — the chain of BlockPlugins the dedicated core runs
// between publish and persist (DamarisNode::complete_iteration), with
// the per-plugin wall-clock accounting that backs the Fig 5 idle-budget
// test (NodePlugins.ChainFitsTheIdleBudget) and the live monitor's
// plugin table.
// build_pipeline() (builtin.hpp) makes it from the <plugins> section;
// the builtin "stats" event action runs a one-plugin chain of its own
// over the blocks its event sees.
//
// Policies (from the <plugins> section):
//  - budget: `iteration_budget_seconds` caps the *chain's* wall time
//    per iteration. The plugin that crosses the line is charged an
//    overrun and the rest of the chain is skipped for that iteration —
//    analytics must never push persist out of the idle window;
//  - on_error / on_overrun: "warn" keeps the offending plugin running,
//    "disable" drops it from the chain for the rest of the run. Errors
//    never propagate to the iteration itself: a broken plugin cannot
//    fail a persist. Exceptions are caught and counted as errors.
//
// Every plugin execution is traced as a Category::kPlugin span
// ("plugin.iteration" per chain run, "plugin.run" per plugin), so
// Chrome timelines show analytics filling the dedicated core's idle
// slices.
//
// Thread-safety: run_iteration()/stats()/find() serialize on an
// internal mutex — shards share one pipeline, and plugin state
// (moments, indexes) is not sharded. With the paper's default of one
// dedicated core the lock is uncontended.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/thread_annotations.hpp"
#include "plugin/plugin.hpp"

namespace dmr::plugin {

enum class FailurePolicy { kWarn, kDisable };

struct PipelineOptions {
  /// Wall-clock budget per iteration for the whole chain; 0 = unlimited.
  double iteration_budget_seconds = 0.0;
  FailurePolicy on_error = FailurePolicy::kWarn;
  FailurePolicy on_overrun = FailurePolicy::kWarn;
};

class PluginPipeline {
 public:
  explicit PluginPipeline(PipelineOptions opts = {}) : opts_(opts) {}

  PluginPipeline(const PluginPipeline&) = delete;
  PluginPipeline& operator=(const PluginPipeline&) = delete;

  /// Appends `p` to the chain. `variables` filters which blocks the
  /// plugin sees (empty = all). Call before the node starts.
  void add(std::unique_ptr<BlockPlugin> p,
           std::vector<std::string> variables = {});

  bool empty() const;
  std::size_t size() const;

  /// Runs the whole chain over one completed iteration's blocks.
  /// Returns the first plugin error (for logging); the iteration itself
  /// must proceed regardless.
  Status run_iteration(std::int64_t iteration,
                       std::span<const BlockView> blocks, PluginContext& ctx);

  /// Per-plugin accounting snapshot (chain order).
  std::vector<PluginStats> stats() const;

  /// The plugin instance registered under `name` (nullptr when absent).
  /// For tests and steering code; the pointer stays owned by the
  /// pipeline and is only safe to touch while no iteration is running.
  BlockPlugin* find(const std::string& name) const;

  const PipelineOptions& options() const { return opts_; }

 private:
  struct Entry {
    std::unique_ptr<BlockPlugin> plugin;
    std::vector<std::string> variables;  // empty = all
    PluginStats stats;
  };

  PipelineOptions opts_;
  mutable Mutex mutex_;
  std::vector<Entry> entries_ DMR_GUARDED_BY(mutex_);
};

}  // namespace dmr::plugin
