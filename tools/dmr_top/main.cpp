// dmr_top — live terminal status for a running Damaris node (DESIGN.md
// §15). Connects to a MonitorServer's AF_UNIX socket, subscribes to the
// snapshot stream and renders a top(1)-style status: iteration
// progress, write-jitter percentiles, degrade-FSM state, fault-ledger
// counters, per-stage pipeline totals and the per-plugin utilization
// table, plus any SLO alerts the server raised. Facility snapshots add
// a per-tenant table (tier on the placement ladder, p95 write time,
// bytes, SLO state).
//
// Usage: dmr_top <socket> [--interval ms] [--once] [--json] [--count N]
//        [--tenant id]
//   --interval ms  subscription interval (default 500)
//   --once         print a single snapshot and exit
//   --json         raw JSON lines instead of the rendered view (pipe to
//                  jq; combines with --once / --count)
//   --count N      exit after N snapshots (default: stream forever)
//   --tenant id    only show this tenant's row of the facility table
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "monitor/client.hpp"
#include "monitor/json.hpp"

namespace {

using dmr::monitor::Json;
using dmr::monitor::MonitorClient;

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

void print_usage() {
  std::fprintf(stderr,
               "usage: dmr_top <socket> [--interval ms] [--once] [--json] "
               "[--count N] [--tenant id]\n");
}

/// --tenant filter; < 0 shows every row of the facility table.
int g_tenant_filter = -1;

std::string fixed_ms(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", seconds * 1e3);
  return buf;
}

/// Renders one snapshot as a full status block (not a cursor-addressed
/// redraw: works in pipes, CI logs and dumb terminals alike).
void render(const Json& s) {
  std::printf("── dmr_top ── %s  seq=%lld  up %.1fs ──\n",
              s.at("source").as_string().c_str(),
              static_cast<long long>(s.at("seq").as_int()),
              s.at("uptime_s").as_number());
  std::printf(
      "iterations %-6lld shards %-3lld clients %-4lld spare %5.1f%%\n",
      static_cast<long long>(s.at("iterations").as_int()),
      static_cast<long long>(s.at("shards").as_int()),
      static_cast<long long>(s.at("clients").as_int()),
      100.0 * s.at("spare_fraction").as_number());

  const Json& j = s.at("write_jitter");
  std::printf(
      "write jitter (ms): n=%lld mean=%s p50=%s p95=%s max=%s spread=%s\n",
      static_cast<long long>(j.at("count").as_int()),
      fixed_ms(j.at("mean").as_number()).c_str(),
      fixed_ms(j.at("p50").as_number()).c_str(),
      fixed_ms(j.at("p95").as_number()).c_str(),
      fixed_ms(j.at("max").as_number()).c_str(),
      fixed_ms(j.at("spread").as_number()).c_str());

  const Json& d = s.at("degrade");
  std::printf(
      "degrade: %-10s pressure=%lld escalations=%lld recoveries=%lld\n",
      d.at("mode").as_string().c_str(),
      static_cast<long long>(d.at("pressure_events").as_int()),
      static_cast<long long>(d.at("escalations").as_int()),
      static_cast<long long>(d.at("recoveries").as_int()));

  const Json& l = s.at("ledger");
  if (l.is_object()) {
    std::printf(
        "ledger:  published=%lld persisted=%lld sync=%lld dropped=%lld "
        "failed=%lld retries=%lld\n",
        static_cast<long long>(l.at("published").as_int()),
        static_cast<long long>(l.at("persisted").as_int()),
        static_cast<long long>(l.at("sync_written").as_int()),
        static_cast<long long>(l.at("dropped").as_int()),
        static_cast<long long>(l.at("failed_persists").as_int()),
        static_cast<long long>(l.at("retries").as_int()));
  }

  const Json& stages = s.at("stages");
  if (stages.is_array() && stages.size() > 0) {
    std::printf("stages:  ");
    for (std::size_t i = 0; i < stages.size(); ++i) {
      const Json& st = stages.at(i);
      if (i > 0) std::printf(" | ");
      std::printf("%s %lld ops %.1fms", st.at("stage").as_string().c_str(),
                  static_cast<long long>(st.at("ops").as_int()),
                  st.at("seconds").as_number() * 1e3);
    }
    std::printf("\n");
  }

  const Json& plugins = s.at("plugins");
  if (plugins.is_array() && plugins.size() > 0) {
    std::printf("plugins (%.1fms total):\n",
                s.at("plugin_seconds").as_number() * 1e3);
    std::printf("  %-16s %10s %12s %10s %7s %7s %s\n", "name", "blocks",
                "bytes", "ms", "errors", "over", "state");
    for (const Json& p : plugins.items()) {
      std::printf("  %-16s %10lld %12lld %10.3f %7lld %7lld %s\n",
                  p.at("name").as_string().c_str(),
                  static_cast<long long>(p.at("blocks").as_int()),
                  static_cast<long long>(p.at("bytes").as_int()),
                  p.at("seconds").as_number() * 1e3,
                  static_cast<long long>(p.at("errors").as_int()),
                  static_cast<long long>(p.at("overruns").as_int()),
                  p.at("disabled").as_bool() ? "disabled" : "active");
    }
  }

  const Json& tenants = s.at("tenants");
  if (tenants.is_array() && tenants.size() > 0) {
    std::printf("tenants:\n");
    std::printf("  %4s %-16s %-14s %9s %12s %s\n", "id", "name", "tier",
                "p95 ms", "bytes", "slo");
    for (const Json& t : tenants.items()) {
      const long long id = static_cast<long long>(t.at("id").as_int());
      if (g_tenant_filter >= 0 && id != g_tenant_filter) continue;
      std::printf("  %4lld %-16s %-14s %9.3f %12lld %s\n", id,
                  t.at("name").as_string().c_str(),
                  t.at("tier").as_string().c_str(),
                  t.at("p95_s").as_number() * 1e3,
                  static_cast<long long>(t.at("bytes").as_int()),
                  t.at("slo").as_string().c_str());
    }
  }

  const Json& alerts = s.at("alerts");
  for (const Json& a : alerts.items()) {
    std::printf("ALERT: %s\n", a.as_string().c_str());
  }
  std::printf("\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  int interval_ms = 500;
  bool once = false;
  bool raw_json = false;
  long count = -1;  // stream forever
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--once") == 0) {
      once = true;
    } else if (std::strcmp(arg, "--json") == 0) {
      raw_json = true;
    } else if (std::strcmp(arg, "--interval") == 0 && i + 1 < argc) {
      interval_ms = std::atoi(argv[++i]);
      if (interval_ms < 1) {
        std::fprintf(stderr, "dmr_top: bad --interval\n");
        return 2;
      }
    } else if (std::strcmp(arg, "--count") == 0 && i + 1 < argc) {
      count = std::atol(argv[++i]);
      if (count < 1) {
        std::fprintf(stderr, "dmr_top: bad --count\n");
        return 2;
      }
    } else if (std::strcmp(arg, "--tenant") == 0 && i + 1 < argc) {
      g_tenant_filter = std::atoi(argv[++i]);
      if (g_tenant_filter < 0) {
        std::fprintf(stderr, "dmr_top: bad --tenant\n");
        return 2;
      }
    } else if (arg[0] == '-') {
      print_usage();
      return 2;
    } else {
      socket_path = arg;
    }
  }
  if (socket_path.empty()) {
    print_usage();
    return 2;
  }
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  MonitorClient client;
  if (dmr::Status s = client.connect(socket_path); !s.is_ok()) {
    std::fprintf(stderr, "dmr_top: %s\n", s.to_string().c_str());
    return 1;
  }

  if (once) {
    auto snap = client.snapshot();
    if (!snap.is_ok()) {
      std::fprintf(stderr, "dmr_top: %s\n", snap.status().to_string().c_str());
      return 1;
    }
    if (raw_json) {
      std::printf("%s\n", snap.value().dump().c_str());
    } else {
      render(snap.value());
    }
    return 0;
  }

  if (dmr::Status s = client.subscribe(interval_ms); !s.is_ok()) {
    std::fprintf(stderr, "dmr_top: %s\n", s.to_string().c_str());
    return 1;
  }
  long seen = 0;
  while (g_stop == 0 && (count < 0 || seen < count)) {
    auto snap = client.next(/*timeout_ms=*/interval_ms * 4 + 2000);
    if (!snap.is_ok()) {
      if (g_stop != 0) break;
      std::fprintf(stderr, "dmr_top: %s\n", snap.status().to_string().c_str());
      return 1;
    }
    if (snap.value().at("type").as_string() != "snapshot") continue;
    ++seen;
    if (raw_json) {
      std::printf("%s\n", snap.value().dump().c_str());
      std::fflush(stdout);
    } else {
      render(snap.value());
    }
  }
  return 0;
}
