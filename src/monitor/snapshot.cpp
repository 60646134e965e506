#include "monitor/snapshot.hpp"

#include <cstdio>

#include "iopath/stage.hpp"

namespace dmr::monitor {

namespace {

/// %.6g rendering, matching the experiments/report JSON convention.
std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string num(std::uint64_t v) { return std::to_string(v); }
std::string num(std::int64_t v) { return std::to_string(v); }

/// Minimal string escaping for the few free-form fields (labels,
/// alerts): quotes and backslashes; control characters become spaces.
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

std::string jitter_json(const trace::JitterSummary& j) {
  std::string out = "{";
  out += "\"count\":" + num(static_cast<std::uint64_t>(j.count));
  out += ",\"mean\":" + num(j.mean);
  out += ",\"stddev\":" + num(j.stddev);
  out += ",\"min\":" + num(j.min);
  out += ",\"p50\":" + num(j.p50);
  out += ",\"p95\":" + num(j.p95);
  out += ",\"max\":" + num(j.max);
  out += ",\"spread\":" + num(j.spread);
  out += "}";
  return out;
}

}  // namespace

std::string MonitorSnapshot::to_json() const {
  std::string out = "{\"type\":\"snapshot\"";
  out += ",\"seq\":" + num(sequence);
  out += ",\"uptime_s\":" + num(uptime_seconds);
  out += ",\"source\":" + quoted(source);
  out += ",\"iterations\":" + num(iterations);
  out += ",\"shards\":" + num(static_cast<std::int64_t>(shards));
  out += ",\"clients\":" + num(static_cast<std::int64_t>(clients));
  out += ",\"spare_fraction\":" + num(spare_fraction);
  out += ",\"write_jitter\":" + jitter_json(write_jitter);
  out += ",\"degrade\":{\"mode\":" + quoted(degrade_mode);
  out += ",\"pressure_events\":" + num(degrade.pressure_events);
  out += ",\"escalations\":" + num(degrade.escalations);
  out += ",\"recoveries\":" + num(degrade.recoveries) + "}";
  if (ledger_valid) {
    out += ",\"ledger\":{\"published\":" + num(ledger.published);
    out += ",\"persisted\":" + num(ledger.persisted);
    out += ",\"superseded\":" + num(ledger.superseded);
    out += ",\"failed_persists\":" + num(ledger.failed_persists);
    out += ",\"sync_written\":" + num(ledger.sync_written);
    out += ",\"dropped\":" + num(ledger.dropped);
    out += ",\"failed_writes\":" + num(ledger.failed_writes);
    out += ",\"retries\":" + num(ledger.retries) + "}";
  } else {
    out += ",\"ledger\":null";
  }
  out += ",\"stages\":[";
  bool first_stage = true;
  for (int i = 0; i < iopath::kNumStageKinds; ++i) {
    const auto kind = static_cast<iopath::StageKind>(i);
    const iopath::StageCounters& c = stages.of(kind);
    if (!first_stage) out += ",";
    first_stage = false;
    out += "{\"stage\":" + quoted(iopath::stage_name(kind));
    out += ",\"ops\":" + num(c.ops);
    out += ",\"seconds\":" + num(c.seconds);
    out += ",\"bytes_in\":" + num(static_cast<std::uint64_t>(c.bytes_in));
    out += ",\"bytes_out\":" + num(static_cast<std::uint64_t>(c.bytes_out));
    out += "}";
  }
  out += "]";
  out += ",\"plugin_seconds\":" + num(plugin_seconds);
  out += ",\"plugins\":[";
  for (std::size_t i = 0; i < plugins.size(); ++i) {
    const plugin::PluginStats& p = plugins[i];
    if (i != 0) out += ",";
    out += "{\"name\":" + quoted(p.name);
    out += ",\"iterations\":" + num(p.iterations);
    out += ",\"blocks\":" + num(p.blocks);
    out += ",\"bytes\":" + num(static_cast<std::uint64_t>(p.bytes));
    out += ",\"seconds\":" + num(p.seconds);
    out += ",\"max_iteration_seconds\":" + num(p.max_iteration_seconds);
    out += ",\"errors\":" + num(p.errors);
    out += ",\"overruns\":" + num(p.overruns);
    out += std::string(",\"disabled\":") + (p.disabled ? "true" : "false");
    out += "}";
  }
  out += "]";
  if (!tenants.empty()) {
    out += ",\"tenants\":[";
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      const TenantRow& t = tenants[i];
      if (i != 0) out += ",";
      out += "{\"id\":" + num(static_cast<std::int64_t>(t.id));
      out += ",\"name\":" + quoted(t.name);
      out += ",\"tier\":" + quoted(t.tier);
      out += ",\"p95_s\":" + num(t.p95_seconds);
      out += ",\"bytes\":" + num(t.bytes);
      out += ",\"slo\":" + quoted(t.slo);
      out += "}";
    }
    out += "]";
  }
  out += ",\"alerts\":[";
  for (std::size_t i = 0; i < alerts.size(); ++i) {
    if (i != 0) out += ",";
    out += quoted(alerts[i]);
  }
  out += "]}";
  return out;
}

std::vector<std::string> evaluate_slo(const MonitorSnapshot& snap,
                                      const SloPolicy& slo) {
  std::vector<std::string> alerts;
  if (snap.write_jitter.count == 0) return alerts;
  const double p95_ms = snap.write_jitter.p95 * 1000.0;
  const double max_ms = snap.write_jitter.max * 1000.0;
  if (slo.p95_ms > 0.0 && p95_ms > slo.p95_ms) {
    alerts.push_back("slo: write p95 " + num(p95_ms) + "ms > " +
                     num(slo.p95_ms) + "ms");
  }
  if (slo.max_ms > 0.0 && max_ms > slo.max_ms) {
    alerts.push_back("slo: write max " + num(max_ms) + "ms > " +
                     num(slo.max_ms) + "ms");
  }
  return alerts;
}

}  // namespace dmr::monitor
