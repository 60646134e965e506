// In-situ analytics harness (ISSUE 8): runs the middleware at fig6
// scale (12 clients, one Kraken node's compute cores) with and without
// the builtin plugin chain and emits one machine-readable
// BENCH_plugin.json with a per-plugin utilization matrix.
//
// Scenarios:
//   - off        no <plugins> section — the idle-budget baseline (the
//                dedicated cores' spare time is what plugins may use,
//                paper Fig 5);
//   - on         statistics + minmax_index + downsample over every
//                published block, per-plugin wall-clock accounting;
//   - on (x2)    the same run twice: every published analytic and every
//                per-plugin block/byte counter must be identical;
//   - monitored  the `on` workload with a MonitorServer attached — a
//                MonitorClient polls the live socket mid-run and must
//                observe progressing iterations, JitterReport
//                percentiles, the degrade-FSM state and fault-ledger
//                counters before the run finishes.
//
// Usage: bench_plugin [output.json] [--check]
//   --check exits nonzero unless the plugin chain fits the measured
//   idle budget, analytics are deterministic and the live-observation
//   scenario saw a running simulation (used by scripts/check.sh
//   --plugins).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "check/fault_checker.hpp"
#include "common/clock.hpp"
#include "core/damaris.hpp"
#include "monitor/client.hpp"
#include "monitor/node_source.hpp"
#include "monitor/server.hpp"

namespace {

using namespace dmr;

constexpr int kClients = 12;
constexpr int kIterations = 12;
constexpr int kElements = 128 * 128;  // one float32 grid per block
// Emulated compute phase between iterations: the paper's setting has
// I/O overlap a much longer compute phase, which is where the
// dedicated core's idle budget (Fig 5) comes from.
constexpr int kComputeUs = 15000;

const char* kXmlOff = R"(
<damaris>
  <buffer size="67108864" policy="firstfit"/>
  <layout name="grid" type="float32" dimensions="128,128"/>
  <variable name="field" layout="grid"/>
</damaris>)";

const char* kXmlOn = R"(
<damaris>
  <buffer size="67108864" policy="firstfit"/>
  <layout name="grid" type="float32" dimensions="128,128"/>
  <variable name="field" layout="grid"/>
  <plugins budget_ms="250" on_error="warn" on_overrun="warn">
    <plugin name="stats" type="statistics" variables="field"/>
    <plugin name="index" type="minmax_index" variables="field"/>
    <plugin name="down" type="downsample" variables="field" stride="8"/>
  </plugins>
</damaris>)";

struct Outcome {
  double wall_seconds = 0.0;
  double dedicated_busy_seconds = 0.0;  // sum of per-iteration persist time
  double plugin_seconds = 0.0;          // sum of per-iteration plugin time
  double idle_seconds = 0.0;            // shards x wall - busy - plugin
  double max_write_seconds = 0.0;
  double throughput_mb_s = 0.0;
  int shards = 0;
  std::uint64_t plugin_errors = 0;
  std::uint64_t plugin_overruns = 0;
  std::map<std::string, double> analytics;
  std::vector<plugin::PluginStats> plugins;
};

/// One deterministic float payload: varies per client and iteration so
/// the statistics/min-max analytics are non-trivial but reproducible.
std::vector<std::byte> make_payload(int client, int iteration) {
  std::vector<std::byte> payload(kElements * sizeof(float));
  for (int i = 0; i < kElements; ++i) {
    const float v = static_cast<float>(client) * 100.0f +
                    static_cast<float>(iteration) * 10.0f +
                    static_cast<float>(i % 97) * 0.5f;
    std::memcpy(payload.data() + i * sizeof(float), &v, sizeof(float));
  }
  return payload;
}

/// Runs the fig6-scale workload under `xml`. `pace_us` > 0 sleeps each
/// client between iterations (gives the monitored scenario a window to
/// observe the run mid-flight). Deterministic analytics for fixed xml.
Outcome run_scenario(const char* xml, int pace_us = 0,
                     check::FaultChecker* checker = nullptr,
                     core::DamarisNode** live_node = nullptr,
                     std::atomic<bool>* running_flag = nullptr) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("bench_plugin_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  auto cfg = config::Config::from_string(xml);
  if (!cfg.is_ok()) {
    std::fprintf(stderr, "config: %s\n", cfg.status().to_string().c_str());
    std::exit(2);
  }
  core::NodeOptions opts;
  opts.output_dir = dir.string();
  opts.file_prefix = "insitu";
  opts.fault_checker = checker;
  core::DamarisNode node(std::move(cfg.value()), kClients, opts);
  if (live_node != nullptr) *live_node = &node;

  const auto t0 = WallClock::now();
  if (Status s = node.start(); !s.is_ok()) {
    std::fprintf(stderr, "start: %s\n", s.to_string().c_str());
    std::exit(2);
  }
  if (running_flag != nullptr) running_flag->store(true);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      core::Client client = node.client(c);
      for (int it = 0; it < kIterations; ++it) {
        const auto payload = make_payload(c, it);
        if (Status s = client.write("field", it, payload); !s.is_ok()) {
          std::fprintf(stderr, "write: %s\n", s.to_string().c_str());
        }
        if (Status s = client.end_iteration(it); !s.is_ok()) {
          std::fprintf(stderr, "end_iteration: %s\n", s.to_string().c_str());
        }
        if (pace_us > 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(pace_us));
        }
      }
      if (Status s = client.finalize(); !s.is_ok()) {
        std::fprintf(stderr, "finalize: %s\n", s.to_string().c_str());
      }
    });
  }
  for (auto& t : threads) t.join();
  if (Status s = node.stop(); !s.is_ok()) {
    std::fprintf(stderr, "stop: %s\n", s.to_string().c_str());
  }
  if (running_flag != nullptr) running_flag->store(false);
  if (live_node != nullptr) *live_node = nullptr;

  Outcome out;
  out.wall_seconds = seconds_since(t0);
  const core::ServerStats stats = node.stats();
  out.shards = stats.shards;
  for (const core::IterationRecord& rec : stats.iterations) {
    out.dedicated_busy_seconds += rec.write_seconds;
    out.plugin_seconds += rec.plugin_seconds;
    out.max_write_seconds = std::max(out.max_write_seconds, rec.write_seconds);
  }
  out.idle_seconds = static_cast<double>(stats.shards) * out.wall_seconds -
                     out.dedicated_busy_seconds - out.plugin_seconds;
  out.throughput_mb_s = static_cast<double>(stats.persistency.raw_bytes) /
                        static_cast<double>(MiB) / out.wall_seconds;
  out.analytics = node.analytics();
  out.plugins = node.plugin_stats();
  for (const plugin::PluginStats& p : out.plugins) {
    out.plugin_errors += p.errors;
    out.plugin_overruns += p.overruns;
  }
  std::filesystem::remove_all(dir);
  return out;
}

/// What the live MonitorClient managed to observe mid-run.
struct Observed {
  bool connected = false;
  std::int64_t iterations = 0;     // highest mid-run iteration count seen
  std::int64_t jitter_count = 0;   // write_jitter.count
  double jitter_p95_ms = 0.0;
  std::string degrade_mode;
  std::int64_t ledger_published = 0;
  std::int64_t plugins_reported = 0;
  std::int64_t polls = 0;
  bool mid_run = false;  // at least one snapshot arrived before stop()
};

Observed observe(const std::string& socket_path,
                 const std::atomic<bool>& running) {
  Observed obs;
  monitor::MonitorClient client;
  // The server starts before the clients; retry briefly anyway.
  for (int attempt = 0; attempt < 100; ++attempt) {
    if (client.connect(socket_path).is_ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (!client.connected()) return obs;
  obs.connected = true;
  const auto deadline = WallClock::now() + std::chrono::seconds(10);
  while (WallClock::now() < deadline) {
    auto snap = client.snapshot(/*timeout_ms=*/2000);
    if (!snap.is_ok()) break;
    ++obs.polls;
    const monitor::Json& j = snap.value();
    const std::int64_t iters = j.at("iterations").as_int();
    if (iters > obs.iterations) obs.iterations = iters;
    obs.jitter_count =
        std::max(obs.jitter_count, j.at("write_jitter").at("count").as_int());
    obs.jitter_p95_ms = std::max(
        obs.jitter_p95_ms, j.at("write_jitter").at("p95").as_number() * 1e3);
    if (j.at("degrade").at("mode").is_string()) {
      obs.degrade_mode = j.at("degrade").at("mode").as_string();
    }
    obs.ledger_published = std::max(
        obs.ledger_published, j.at("ledger").at("published").as_int());
    obs.plugins_reported = std::max(
        obs.plugins_reported, static_cast<std::int64_t>(j.at("plugins").size()));
    const bool live = running.load();
    if (live) obs.mid_run = true;
    // Keep polling until we've seen real progress from a live run.
    if (obs.mid_run && obs.iterations > 0 && obs.jitter_count > 0 &&
        obs.ledger_published > 0) {
      break;
    }
    if (!live && obs.polls > 3) break;  // run finished without us catching it
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  client.close();
  return obs;
}

std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string outcome_json(const Outcome& o) {
  std::string j = "{";
  j += "\"wall_s\": " + json_num(o.wall_seconds);
  j += ", \"dedicated_busy_s\": " + json_num(o.dedicated_busy_seconds);
  j += ", \"plugin_s\": " + json_num(o.plugin_seconds);
  j += ", \"idle_s\": " + json_num(o.idle_seconds);
  j += ", \"max_write_ms\": " + json_num(o.max_write_seconds * 1e3);
  j += ", \"throughput_mb_s\": " + json_num(o.throughput_mb_s);
  j += ", \"shards\": " + std::to_string(o.shards);
  j += ", \"plugin_errors\": " + std::to_string(o.plugin_errors);
  j += ", \"plugin_overruns\": " + std::to_string(o.plugin_overruns);
  j += "}";
  return j;
}

/// Per-plugin utilization matrix: each plugin's wall-clock share of the
/// dedicated cores' total time.
std::string utilization_json(const Outcome& o) {
  std::string j = "[";
  const double core_seconds =
      static_cast<double>(o.shards) * o.wall_seconds;
  bool first = true;
  for (const plugin::PluginStats& p : o.plugins) {
    if (!first) j += ", ";
    first = false;
    j += "{\"name\": \"" + p.name + "\"";
    j += ", \"iterations\": " + std::to_string(p.iterations);
    j += ", \"blocks\": " + std::to_string(p.blocks);
    j += ", \"bytes\": " + std::to_string(p.bytes);
    j += ", \"seconds\": " + json_num(p.seconds);
    j += ", \"max_iteration_ms\": " + json_num(p.max_iteration_seconds * 1e3);
    j += ", \"utilization\": " +
         json_num(core_seconds > 0.0 ? p.seconds / core_seconds : 0.0);
    j += ", \"errors\": " + std::to_string(p.errors);
    j += ", \"overruns\": " + std::to_string(p.overruns);
    j += "}";
  }
  j += "]";
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_plugin.json";
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else {
      out_path = argv[i];
    }
  }
  dmr::bench::banner(
      "bench_plugin: in-situ analytics chain + live observability",
      "ISSUE 8 (plugin pipeline on the dedicated core; paper Fig 5 idle "
      "budget)",
      "plugins fit the measured idle budget; analytics deterministic; "
      "live monitor observes a running simulation");

  std::string json = "{\n  \"schema\": \"dmr-bench-plugin-v1\",\n";

  // --- baseline: no plugins ---
  const Outcome off = run_scenario(kXmlOff, kComputeUs);
  std::printf("off:        wall %.3f s  busy %.3f s  idle budget %.3f s\n",
              off.wall_seconds, off.dedicated_busy_seconds, off.idle_seconds);
  json += "  \"off\": " + outcome_json(off) + ",\n";

  // --- plugin chain on, twice (determinism) ---
  const Outcome on1 = run_scenario(kXmlOn, kComputeUs);
  const Outcome on2 = run_scenario(kXmlOn, kComputeUs);
  std::printf(
      "on:         wall %.3f s  plugin %.4f s  (%.2f%% of idle budget)  "
      "analytics=%zu\n",
      on1.wall_seconds, on1.plugin_seconds,
      off.idle_seconds > 0.0 ? 100.0 * on1.plugin_seconds / off.idle_seconds
                             : 0.0,
      on1.analytics.size());
  for (const plugin::PluginStats& p : on1.plugins) {
    std::printf("  plugin %-8s blocks=%-5llu bytes=%-9llu %.4f s\n",
                p.name.c_str(), static_cast<unsigned long long>(p.blocks),
                static_cast<unsigned long long>(p.bytes), p.seconds);
  }
  const bool analytics_match = on1.analytics == on2.analytics;
  bool counters_match = on1.plugins.size() == on2.plugins.size();
  for (std::size_t i = 0; counters_match && i < on1.plugins.size(); ++i) {
    counters_match = on1.plugins[i].name == on2.plugins[i].name &&
                     on1.plugins[i].blocks == on2.plugins[i].blocks &&
                     on1.plugins[i].bytes == on2.plugins[i].bytes;
  }
  std::printf("determinism: analytics=%s counters=%s\n",
              analytics_match ? "identical" : "DIVERGED",
              counters_match ? "identical" : "DIVERGED");
  json += "  \"on\": " + outcome_json(on1) + ",\n";
  json += "  \"utilization\": " + utilization_json(on1) + ",\n";
  json += std::string("  \"deterministic\": ") +
          (analytics_match && counters_match ? "true" : "false") + ",\n";

  // --- monitored: live observation mid-run ---
  const std::string socket_path =
      "/tmp/dmr_bench_plugin_" + std::to_string(::getpid()) + ".sock";
  check::FaultChecker checker;
  core::DamarisNode* live = nullptr;
  std::atomic<bool> running{false};
  Observed obs;
  // The server's SnapshotFn dereferences `live`, which run_scenario sets
  // before clients start and clears after stop(); guard the window.
  monitor::MonitorOptions mopts;
  mopts.socket_path = socket_path;
  monitor::NodeSourceOptions nopts;
  nopts.label = "bench_plugin";
  nopts.checker = &checker;
  Outcome monitored;
  {
    std::thread observer;
    monitor::MonitorServer server(mopts, [&]() {
      core::DamarisNode* node = live;
      if (node == nullptr) return monitor::MonitorSnapshot{};
      return monitor::snapshot_of(*node, nopts);
    });
    // Start the observer only once the node pointer is published, from
    // inside the workload; pace clients so the run stays observable.
    std::thread kickoff([&] {
      while (!running.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      obs = observe(socket_path, running);
    });
    if (Status s = server.start(); !s.is_ok()) {
      std::fprintf(stderr, "monitor start: %s\n", s.to_string().c_str());
      std::exit(2);
    }
    monitored = run_scenario(kXmlOn, /*pace_us=*/3000, &checker, &live,
                             &running);
    kickoff.join();
    server.stop();
    const monitor::MonitorServer::Stats mstats = server.stats();
    std::printf(
        "monitored:  polls=%lld iterations=%lld jitter_count=%lld "
        "p95=%.3f ms degrade=%s ledger_published=%lld mid_run=%s\n",
        static_cast<long long>(obs.polls),
        static_cast<long long>(obs.iterations),
        static_cast<long long>(obs.jitter_count), obs.jitter_p95_ms,
        obs.degrade_mode.empty() ? "(none)" : obs.degrade_mode.c_str(),
        static_cast<long long>(obs.ledger_published),
        obs.mid_run ? "yes" : "NO");
    json += "  \"monitored\": {\"outcome\": " + outcome_json(monitored);
    json += ", \"observed\": {";
    json += "\"polls\": " + std::to_string(obs.polls);
    json += ", \"iterations\": " + std::to_string(obs.iterations);
    json += ", \"jitter_count\": " + std::to_string(obs.jitter_count);
    json += ", \"jitter_p95_ms\": " + json_num(obs.jitter_p95_ms);
    json += ", \"degrade_mode\": \"" + obs.degrade_mode + "\"";
    json += ", \"ledger_published\": " + std::to_string(obs.ledger_published);
    json += ", \"plugins_reported\": " + std::to_string(obs.plugins_reported);
    json += std::string(", \"mid_run\": ") + (obs.mid_run ? "true" : "false");
    json += ", \"server_snapshots\": " + std::to_string(mstats.snapshots_sent);
    json += "}}\n}\n";
  }

  if (!bench::write_file(out_path, json)) return 2;
  std::printf("\nwrote %s\n", out_path.c_str());

  if (check) {
    int rc = 0;
    const auto expect = [&rc](bool cond, const char* what) {
      if (!cond) {
        std::fprintf(stderr, "CHECK FAILED: %s\n", what);
        rc = 1;
      }
    };
    expect(off.idle_seconds > 0.0, "baseline leaves a positive idle budget");
    expect(on1.plugin_seconds <= off.idle_seconds,
           "plugin chain fits the dedicated cores' idle budget (Fig 5)");
    expect(on1.plugin_errors == 0, "no plugin errors");
    expect(on1.plugin_overruns == 0, "no plugin overruns");
    expect(!on1.analytics.empty(), "plugins published analytics");
    expect(on1.plugins.size() == 3, "all three builtins ran");
    expect(analytics_match, "analytics identical across identical runs");
    expect(counters_match, "plugin counters identical across identical runs");
    expect(obs.connected, "monitor client connected");
    expect(obs.mid_run, "monitor observed the run before it finished");
    expect(obs.iterations > 0, "monitor saw progressing iterations");
    expect(obs.jitter_count > 0, "monitor saw live jitter percentiles");
    expect(!obs.degrade_mode.empty(), "monitor saw the degrade-FSM state");
    expect(obs.ledger_published > 0, "monitor saw fault-ledger counters");
    expect(obs.plugins_reported == 3, "monitor saw per-plugin accounting");
    std::printf("plugin check: %s\n", rc == 0 ? "PASS" : "FAIL");
    return rc;
  }
  return 0;
}
