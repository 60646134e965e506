// Builtin in-situ plugins — the three analytics the paper names for the
// dedicated core's spare time (§IV-C3): statistics, indexing,
// downsampling/compression. All three are deterministic functions of
// the published data, which is what lets the idle-budget test pin
// "identical runs ⇒ identical plugin outputs". build_pipeline() makes
// the <plugins> chain out of them.
//
// Thread-safety: driven only through PluginPipeline's serializing
// mutex; see plugin.hpp.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "config/config.hpp"
#include "plugin/pipeline.hpp"
#include "plugin/plugin.hpp"

namespace dmr::plugin {

/// "statistics": per-variable streaming moments (count, min, max, mean,
/// stddev via Welford) over all blocks of an iteration, published as
/// "<variable>.count/.min/.max/.mean/.stddev" at end_iteration.
class StatisticsPlugin : public BlockPlugin {
 public:
  explicit StatisticsPlugin(std::string name) : name_(std::move(name)) {}

  const std::string& name() const override { return name_; }
  Status process_block(const BlockView& block, PluginContext& ctx) override;
  Status end_iteration(std::int64_t iteration, PluginContext& ctx) override;

 private:
  struct Moments {
    std::uint64_t count = 0;
    double mean = 0.0;
    double m2 = 0.0;
    double min = 0.0;
    double max = 0.0;
  };

  std::string name_;
  std::map<std::string, Moments> pending_;  // variable -> this iteration
};

/// "minmax_index": a per-block min/max index — the cheap range index
/// that answers "which blocks can contain a value in [lo, hi]?" without
/// touching the data again. Keeps at most `capacity` entries
/// (oldest-first eviction) and publishes "<variable>.index.entries".
class MinMaxIndexPlugin : public BlockPlugin {
 public:
  struct Entry {
    std::string variable;
    std::int64_t iteration = 0;
    int source = -1;
    double min = 0.0;
    double max = 0.0;
  };

  explicit MinMaxIndexPlugin(std::string name, std::size_t capacity = 65536)
      : name_(std::move(name)), capacity_(capacity) {}

  const std::string& name() const override { return name_; }
  Status process_block(const BlockView& block, PluginContext& ctx) override;
  Status end_iteration(std::int64_t iteration, PluginContext& ctx) override;

  const std::vector<Entry>& entries() const { return entries_; }
  /// Index entries whose [min, max] intersects [lo, hi] for `variable`.
  std::vector<Entry> lookup(const std::string& variable, double lo,
                            double hi) const;

 private:
  std::string name_;
  std::size_t capacity_;
  std::vector<Entry> entries_;
  std::uint64_t evicted_ = 0;
};

/// "downsample": strided decimation — every stride-th element of each
/// block, converted to double — kept as the latest preview per
/// variable (the visualization feed of the paper's in-situ story).
/// Publishes "<variable>.downsample.elements" and a deterministic
/// ".downsample.sum" checksum.
class DownsamplePlugin : public BlockPlugin {
 public:
  DownsamplePlugin(std::string name, int stride)
      : name_(std::move(name)), stride_(stride < 1 ? 1 : stride) {}

  const std::string& name() const override { return name_; }
  Status process_block(const BlockView& block, PluginContext& ctx) override;

  int stride() const { return stride_; }
  /// Latest downsampled preview of `variable` (empty when never seen).
  const std::vector<double>& latest(const std::string& variable) const;

 private:
  std::string name_;
  int stride_;
  std::map<std::string, std::vector<double>> latest_;
};

/// Builds the whole chain from a parsed <plugins> section: policies
/// from the section attributes, one builtin instance per <plugin>
/// declaration, in declaration order. kNotFound names the first
/// declaration of an unknown type.
Result<std::unique_ptr<PluginPipeline>> build_pipeline(
    const config::PluginsConfig& cfg);

}  // namespace dmr::plugin
