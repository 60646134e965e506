#include "plugin/pipeline.hpp"

#include <algorithm>
#include <exception>

#include "common/clock.hpp"
#include "common/log.hpp"
#include "trace/event.hpp"
#include "trace/tracer.hpp"

namespace dmr::plugin {

namespace {

/// One plugin over one iteration's (filtered) blocks, exceptions
/// contained. Returns the first non-OK status.
Status run_plugin(BlockPlugin& plugin, std::int64_t iteration,
                  std::span<const BlockView> blocks, PluginContext& ctx,
                  const std::vector<std::string>& filter,
                  std::uint64_t& blocks_seen, Bytes& bytes_seen) {
  Status first = Status::ok();
  try {
    for (const BlockView& b : blocks) {
      if (!filter.empty() &&
          std::find(filter.begin(), filter.end(), b.variable) ==
              filter.end()) {
        continue;
      }
      ++blocks_seen;
      bytes_seen += b.data.size();
      if (Status s = plugin.process_block(b, ctx); !s.is_ok() && first.is_ok()) {
        first = s;
      }
    }
    if (Status s = plugin.end_iteration(iteration, ctx);
        !s.is_ok() && first.is_ok()) {
      first = s;
    }
  } catch (const std::exception& e) {
    first = internal_error(std::string("plugin threw: ") + e.what());
  } catch (...) {
    first = internal_error("plugin threw a non-exception");
  }
  return first;
}

}  // namespace

void PluginPipeline::add(std::unique_ptr<BlockPlugin> p,
                         std::vector<std::string> variables) {
  MutexLock lock(mutex_);
  Entry e;
  e.stats.name = p->name();
  e.plugin = std::move(p);
  e.variables = std::move(variables);
  entries_.push_back(std::move(e));
}

bool PluginPipeline::empty() const {
  MutexLock lock(mutex_);
  return entries_.empty();
}

std::size_t PluginPipeline::size() const {
  MutexLock lock(mutex_);
  return entries_.size();
}

Status PluginPipeline::run_iteration(std::int64_t iteration,
                                     std::span<const BlockView> blocks,
                                     PluginContext& ctx) {
  MutexLock lock(mutex_);
  Status first = Status::ok();
  trace::Tracer* tracer = trace::current();
  const trace::EntityId entity{trace::EntityType::kWriter,
                               static_cast<std::uint32_t>(ctx.shard)};
  const auto chain_t0 = WallClock::now();
  const double budget = opts_.iteration_budget_seconds;
  bool budget_blown = false;

  for (Entry& e : entries_) {
    if (e.stats.disabled) continue;
    if (budget_blown) break;

    const auto t0 = WallClock::now();
    std::uint64_t blocks_seen = 0;
    Bytes bytes_seen = 0;
    Status s = run_plugin(*e.plugin, iteration, blocks, ctx, e.variables,
                          blocks_seen, bytes_seen);
    const double dt = seconds_since(t0);

    ++e.stats.iterations;
    e.stats.blocks += blocks_seen;
    e.stats.bytes += bytes_seen;
    e.stats.seconds += dt;
    e.stats.max_iteration_seconds = std::max(e.stats.max_iteration_seconds, dt);

    if (tracer && tracer->enabled(trace::Category::kPlugin)) {
      tracer->record_span(entity, trace::Category::kPlugin, "plugin.run",
                          tracer->wall_now() - dt, dt, bytes_seen,
                          static_cast<std::int32_t>(iteration));
    }

    if (!s.is_ok()) {
      ++e.stats.errors;
      if (first.is_ok()) first = s;
      DMR_LOG(kWarn, "plugin")
          << "plugin '" << e.stats.name << "' failed on iteration "
          << iteration << ": " << s.to_string();
      if (opts_.on_error == FailurePolicy::kDisable) {
        e.stats.disabled = true;
        DMR_LOG(kWarn, "plugin")
            << "plugin '" << e.stats.name << "' disabled (on_error)";
      }
      if (tracer && tracer->enabled(trace::Category::kPlugin)) {
        tracer->record_instant(entity, trace::Category::kPlugin,
                               "plugin.error", tracer->wall_now());
      }
    }

    if (budget > 0.0 && seconds_since(chain_t0) > budget) {
      // This plugin crossed the chain's remaining budget: charge it the
      // overrun and stop the chain for this iteration — analytics must
      // not push persist out of the idle window.
      ++e.stats.overruns;
      budget_blown = true;
      DMR_LOG(kWarn, "plugin")
          << "plugin '" << e.stats.name << "' overran the iteration budget ("
          << dt << "s, budget " << budget << "s) on iteration " << iteration;
      if (opts_.on_overrun == FailurePolicy::kDisable) {
        e.stats.disabled = true;
        DMR_LOG(kWarn, "plugin")
            << "plugin '" << e.stats.name << "' disabled (on_overrun)";
      }
      if (tracer && tracer->enabled(trace::Category::kPlugin)) {
        tracer->record_instant(entity, trace::Category::kPlugin,
                               "plugin.overrun", tracer->wall_now());
      }
    }
  }

  if (tracer && tracer->enabled(trace::Category::kPlugin)) {
    const double total = seconds_since(chain_t0);
    tracer->record_span(entity, trace::Category::kPlugin, "plugin.iteration",
                        tracer->wall_now() - total, total, 0,
                        static_cast<std::int32_t>(iteration));
  }
  return first;
}

std::vector<PluginStats> PluginPipeline::stats() const {
  MutexLock lock(mutex_);
  std::vector<PluginStats> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.stats);
  return out;
}

BlockPlugin* PluginPipeline::find(const std::string& name) const {
  MutexLock lock(mutex_);
  for (const Entry& e : entries_) {
    if (e.stats.name == name) return e.plugin.get();
  }
  return nullptr;
}

}  // namespace dmr::plugin
