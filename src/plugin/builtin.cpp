#include "plugin/builtin.hpp"

#include <cmath>
#include <cstring>

namespace dmr::plugin {

namespace {

/// Element count actually present in a block: dynamically shaped writes
/// may carry fewer/more bytes than the declared layout, so trust the
/// payload size.
std::size_t block_elements(const BlockView& b) {
  const std::size_t elem =
      b.layout ? format::datatype_size(b.layout->type) : 1;
  return elem == 0 ? 0 : b.data.size() / elem;
}

format::DataType block_type(const BlockView& b) {
  return b.layout ? b.layout->type : format::DataType::kUInt8;
}

}  // namespace

double element_as_double(format::DataType type, const std::byte* p) {
  using format::DataType;
  switch (type) {
    case DataType::kInt8: {
      std::int8_t v;
      std::memcpy(&v, p, sizeof v);
      return static_cast<double>(v);
    }
    case DataType::kUInt8: {
      std::uint8_t v;
      std::memcpy(&v, p, sizeof v);
      return static_cast<double>(v);
    }
    case DataType::kInt16: {
      std::int16_t v;
      std::memcpy(&v, p, sizeof v);
      return static_cast<double>(v);
    }
    case DataType::kUInt16: {
      std::uint16_t v;
      std::memcpy(&v, p, sizeof v);
      return static_cast<double>(v);
    }
    case DataType::kInt32: {
      std::int32_t v;
      std::memcpy(&v, p, sizeof v);
      return static_cast<double>(v);
    }
    case DataType::kUInt32: {
      std::uint32_t v;
      std::memcpy(&v, p, sizeof v);
      return static_cast<double>(v);
    }
    case DataType::kInt64: {
      std::int64_t v;
      std::memcpy(&v, p, sizeof v);
      return static_cast<double>(v);
    }
    case DataType::kUInt64: {
      std::uint64_t v;
      std::memcpy(&v, p, sizeof v);
      return static_cast<double>(v);
    }
    case DataType::kFloat32: {
      float v;
      std::memcpy(&v, p, sizeof v);
      return static_cast<double>(v);
    }
    case DataType::kFloat64: {
      double v;
      std::memcpy(&v, p, sizeof v);
      return v;
    }
  }
  return 0.0;
}

// --- StatisticsPlugin ---

Status StatisticsPlugin::process_block(const BlockView& block,
                                       PluginContext& ctx) {
  (void)ctx;
  const std::size_t n = block_elements(block);
  if (n == 0) return Status::ok();
  const format::DataType type = block_type(block);
  const std::size_t elem = format::datatype_size(type);
  Moments& m = pending_[std::string(block.variable)];
  const std::byte* p = block.data.data();
  for (std::size_t i = 0; i < n; ++i, p += elem) {
    const double x = element_as_double(type, p);
    if (m.count == 0) {
      m.min = x;
      m.max = x;
    } else {
      if (x < m.min) m.min = x;
      if (x > m.max) m.max = x;
    }
    ++m.count;
    const double delta = x - m.mean;
    m.mean += delta / static_cast<double>(m.count);
    m.m2 += delta * (x - m.mean);
  }
  return Status::ok();
}

Status StatisticsPlugin::end_iteration(std::int64_t iteration,
                                       PluginContext& ctx) {
  (void)iteration;
  for (const auto& [variable, m] : pending_) {
    const double var =
        m.count < 2 ? 0.0 : m.m2 / static_cast<double>(m.count - 1);
    ctx.publish(variable + ".count", static_cast<double>(m.count));
    ctx.publish(variable + ".min", m.min);
    ctx.publish(variable + ".max", m.max);
    ctx.publish(variable + ".mean", m.mean);
    ctx.publish(variable + ".stddev", std::sqrt(var));
  }
  pending_.clear();
  return Status::ok();
}

// --- MinMaxIndexPlugin ---

Status MinMaxIndexPlugin::process_block(const BlockView& block,
                                        PluginContext& ctx) {
  (void)ctx;
  const std::size_t n = block_elements(block);
  if (n == 0) return Status::ok();
  const format::DataType type = block_type(block);
  const std::size_t elem = format::datatype_size(type);
  Entry e;
  e.variable = std::string(block.variable);
  e.iteration = block.iteration;
  e.source = block.source;
  const std::byte* p = block.data.data();
  e.min = element_as_double(type, p);
  e.max = e.min;
  p += elem;
  for (std::size_t i = 1; i < n; ++i, p += elem) {
    const double x = element_as_double(type, p);
    if (x < e.min) e.min = x;
    if (x > e.max) e.max = x;
  }
  if (entries_.size() >= capacity_) {
    entries_.erase(entries_.begin());
    ++evicted_;
  }
  entries_.push_back(std::move(e));
  return Status::ok();
}

Status MinMaxIndexPlugin::end_iteration(std::int64_t iteration,
                                        PluginContext& ctx) {
  (void)iteration;
  std::map<std::string, double> counts;
  for (const Entry& e : entries_) counts[e.variable] += 1.0;
  for (const auto& [variable, n] : counts) {
    ctx.publish(variable + ".index.entries", n);
  }
  return Status::ok();
}

std::vector<MinMaxIndexPlugin::Entry> MinMaxIndexPlugin::lookup(
    const std::string& variable, double lo, double hi) const {
  std::vector<Entry> out;
  for (const Entry& e : entries_) {
    if (e.variable == variable && e.max >= lo && e.min <= hi) {
      out.push_back(e);
    }
  }
  return out;
}

// --- DownsamplePlugin ---

Status DownsamplePlugin::process_block(const BlockView& block,
                                       PluginContext& ctx) {
  const std::size_t n = block_elements(block);
  const format::DataType type = block_type(block);
  const std::size_t elem = format::datatype_size(type);
  std::vector<double>& out = latest_[std::string(block.variable)];
  out.clear();
  double sum = 0.0;
  for (std::size_t i = 0; i < n; i += static_cast<std::size_t>(stride_)) {
    const double x = element_as_double(type, block.data.data() + i * elem);
    out.push_back(x);
    sum += x;
  }
  ctx.publish(std::string(block.variable) + ".downsample.elements",
              static_cast<double>(out.size()));
  ctx.publish(std::string(block.variable) + ".downsample.sum", sum);
  return Status::ok();
}

const std::vector<double>& DownsamplePlugin::latest(
    const std::string& variable) const {
  static const std::vector<double> kEmpty;
  auto it = latest_.find(variable);
  return it == latest_.end() ? kEmpty : it->second;
}

Result<std::unique_ptr<PluginPipeline>> build_pipeline(
    const config::PluginsConfig& cfg) {
  PipelineOptions opts;
  opts.iteration_budget_seconds = cfg.budget_ms / 1000.0;
  opts.on_error = cfg.on_error == "disable" ? FailurePolicy::kDisable
                                            : FailurePolicy::kWarn;
  opts.on_overrun = cfg.on_overrun == "disable" ? FailurePolicy::kDisable
                                                : FailurePolicy::kWarn;
  auto pipeline = std::make_unique<PluginPipeline>(opts);
  for (const config::PluginDecl& d : cfg.plugins) {
    std::unique_ptr<BlockPlugin> plugin;
    if (d.type == "statistics") {
      plugin = std::make_unique<StatisticsPlugin>(d.name);
    } else if (d.type == "minmax_index") {
      plugin = std::make_unique<MinMaxIndexPlugin>(d.name);
    } else if (d.type == "downsample") {
      plugin = std::make_unique<DownsamplePlugin>(d.name, d.stride);
    } else {
      return not_found("unknown plugin type '" + d.type + "' (plugin '" +
                       d.name + "')");
    }
    pipeline->add(std::move(plugin), d.variables);
  }
  return pipeline;
}

}  // namespace dmr::plugin
