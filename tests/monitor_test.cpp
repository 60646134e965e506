// Tests for the live observability server (src/monitor):
//  - the minimal JSON parser round-trips the wire format and rejects
//    malformed documents;
//  - snapshot serialization is one stable JSON line the parser reads
//    back field-for-field;
//  - protocol: ping/snapshot/subscribe/unsubscribe/quit over a real
//    AF_UNIX socket, unknown commands answered with an error line;
//  - resilience: a client disconnecting mid-stream leaves the server
//    serving everyone else;
//  - SLO policy: threshold alerts appear on emitted snapshots;
//  - node integration: a MonitorClient observes a live DamarisNode's
//    jitter percentiles, degrade state and ledger counters mid-run.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <thread>
#include <vector>

#include "check/fault_checker.hpp"
#include "common/clock.hpp"
#include "config/config.hpp"
#include "core/damaris.hpp"
#include "monitor/client.hpp"
#include "monitor/json.hpp"
#include "monitor/node_source.hpp"
#include "monitor/server.hpp"
#include "monitor/snapshot.hpp"
#include "trace/chrome_export.hpp"
#include "trace/jitter_report.hpp"

namespace dmr::monitor {
namespace {

std::string test_socket(const std::string& tag) {
  return "/tmp/dmr_montest_" + tag + "_" + std::to_string(::getpid()) +
         ".sock";
}

/// A deterministic synthetic snapshot source.
MonitorSnapshot sample_snapshot() {
  MonitorSnapshot s;
  s.source = "test";
  s.iterations = 7;
  s.shards = 2;
  s.clients = 4;
  s.spare_fraction = 0.25;
  Sample jitter;
  for (double v : {0.010, 0.011, 0.012, 0.013, 0.050}) jitter.add(v);
  s.write_jitter = trace::JitterSummary::of(jitter);
  s.degrade_mode = "normal";
  s.ledger_valid = true;
  s.ledger.published = 28;
  s.ledger.persisted = 28;
  s.plugin_seconds = 0.004;
  plugin::PluginStats p;
  p.name = "stats";
  p.blocks = 28;
  p.bytes = 1 << 20;
  p.seconds = 0.004;
  s.plugins.push_back(p);
  return s;
}

// ------------------------------------------------------------- JSON

TEST(Json, ParsesScalarsArraysObjects) {
  auto r = Json::parse(
      R"({"a": 1.5, "b": [true, null, "x\n\"y\""], "c": {"d": -3}})");
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  const Json& j = r.value();
  EXPECT_DOUBLE_EQ(j.at("a").as_number(), 1.5);
  EXPECT_TRUE(j.at("b").at(std::size_t{0}).as_bool());
  EXPECT_TRUE(j.at("b").at(std::size_t{1}).is_null());
  EXPECT_EQ(j.at("b").at(std::size_t{2}).as_string(), "x\n\"y\"");
  EXPECT_EQ(j.at("c").at("d").as_int(), -3);
  EXPECT_FALSE(j.has("missing"));
  EXPECT_TRUE(j.at("missing").is_null());
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_FALSE(Json::parse("").is_ok());
  EXPECT_FALSE(Json::parse("{").is_ok());
  EXPECT_FALSE(Json::parse("[1,]").is_ok());
  EXPECT_FALSE(Json::parse("{\"a\": 1} trailing").is_ok());
  EXPECT_FALSE(Json::parse("\"unterminated").is_ok());
  EXPECT_FALSE(Json::parse("nul").is_ok());
}

TEST(Json, DumpRoundTrips) {
  auto first = Json::parse(R"({"x": [1, 2.25, "s"], "y": {"z": false}})");
  ASSERT_TRUE(first.is_ok());
  auto second = Json::parse(first.value().dump());
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(first.value().dump(), second.value().dump());
}

TEST(Json, TraceWritersEscapeControlCharacters) {
  // A trace-event name and a jitter-report label holding a newline, a
  // tab and a raw control byte still come out as valid JSON, and the
  // name reads back unchanged.
  static const char kName[] = "a\nb\t\x01";
  EXPECT_FALSE(Json::parse("\"a\nb\"").is_ok()) << "raw newline accepted";

  trace::TraceEvent ev;
  ev.name = kName;
  const std::string chrome_text = trace::chrome_trace_json({ev});
  auto chrome = Json::parse(chrome_text);
  ASSERT_TRUE(chrome.is_ok()) << chrome.status().to_string() << "\n"
                              << chrome_text;
  EXPECT_EQ(chrome.value().at("traceEvents").items().back().at("name")
                .as_string(),
            kName);

  trace::JitterReport report;
  Sample sample;
  sample.add(1.0);
  report.add(kName, kName, sample);
  const std::string jitter_text = report.to_json();
  auto jitter = Json::parse(jitter_text);
  ASSERT_TRUE(jitter.is_ok()) << jitter.status().to_string() << "\n"
                              << jitter_text;
  EXPECT_EQ(jitter.value().at(std::size_t{0}).at("group").as_string(), kName);
  EXPECT_EQ(jitter.value().at(std::size_t{0}).at("label").as_string(), kName);
}

TEST(Snapshot, SerializesToOneParsableLine) {
  const MonitorSnapshot s = sample_snapshot();
  const std::string line = s.to_json();
  EXPECT_EQ(line.find('\n'), std::string::npos);
  auto r = Json::parse(line);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  const Json& j = r.value();
  EXPECT_EQ(j.at("type").as_string(), "snapshot");
  EXPECT_EQ(j.at("iterations").as_int(), 7);
  EXPECT_EQ(j.at("write_jitter").at("count").as_int(), 5);
  EXPECT_NEAR(j.at("write_jitter").at("max").as_number(), 0.050, 1e-9);
  EXPECT_EQ(j.at("degrade").at("mode").as_string(), "normal");
  EXPECT_EQ(j.at("ledger").at("published").as_int(), 28);
  ASSERT_EQ(j.at("plugins").size(), 1u);
  EXPECT_EQ(j.at("plugins").at(std::size_t{0}).at("name").as_string(),
            "stats");
  EXPECT_EQ(j.at("stages").size(), static_cast<std::size_t>(
                                       iopath::kNumStageKinds));
}

// Byte-exact golden: the wire format is a determinism sink (clients
// diff snapshots, the equivalence suite hashes them), so field order
// and number rendering are pinned here. If this test fails because the
// format deliberately changed, update the golden string AND bump the
// protocol notes in src/monitor/snapshot.hpp.
TEST(Snapshot, GoldenByteExactSerialization) {
  MonitorSnapshot s;
  s.sequence = 9;
  s.uptime_seconds = 1.5;
  s.source = "golden";
  s.iterations = 3;
  s.shards = 2;
  s.clients = 4;
  s.spare_fraction = 0.5;
  s.write_jitter.count = 2;
  s.write_jitter.mean = 0.01;
  s.write_jitter.stddev = 0.001;
  s.write_jitter.min = 0.009;
  s.write_jitter.p50 = 0.01;
  s.write_jitter.p95 = 0.011;
  s.write_jitter.max = 0.011;
  s.write_jitter.spread = 0.002;
  s.degrade_mode = "normal";
  s.degrade.pressure_events = 1;
  s.degrade.escalations = 0;
  s.degrade.recoveries = 0;
  s.ledger_valid = true;
  s.ledger.published = 6;
  s.ledger.persisted = 5;
  s.ledger.superseded = 1;
  s.ledger.failed_persists = 0;
  s.ledger.sync_written = 2;
  s.ledger.dropped = 0;
  s.ledger.failed_writes = 0;
  s.ledger.retries = 0;
  s.plugin_seconds = 0.25;
  plugin::PluginStats p;
  p.name = "stats";
  p.iterations = 3;
  p.blocks = 6;
  p.bytes = 4096;
  p.seconds = 0.25;
  p.max_iteration_seconds = 0.1;
  p.errors = 0;
  p.overruns = 0;
  p.disabled = false;
  s.plugins.push_back(p);
  s.alerts.push_back("slo: write p95 11ms > 10ms");
  EXPECT_EQ(
      s.to_json(),
      "{\"type\":\"snapshot\",\"seq\":9,\"uptime_s\":1.5,"
      "\"source\":\"golden\",\"iterations\":3,\"shards\":2,\"clients\":4,"
      "\"spare_fraction\":0.5,\"write_jitter\":{\"count\":2,\"mean\":0.01,"
      "\"stddev\":0.001,\"min\":0.009,\"p50\":0.01,\"p95\":0.011,"
      "\"max\":0.011,\"spread\":0.002},\"degrade\":{\"mode\":\"normal\","
      "\"pressure_events\":1,\"escalations\":0,\"recoveries\":0},"
      "\"ledger\":{\"published\":6,\"persisted\":5,\"superseded\":1,"
      "\"failed_persists\":0,\"sync_written\":2,\"dropped\":0,"
      "\"failed_writes\":0,\"retries\":0},\"stages\":["
      "{\"stage\":\"ingest\",\"ops\":0,\"seconds\":0,\"bytes_in\":0,"
      "\"bytes_out\":0},"
      "{\"stage\":\"transform\",\"ops\":0,\"seconds\":0,\"bytes_in\":0,"
      "\"bytes_out\":0},"
      "{\"stage\":\"schedule\",\"ops\":0,\"seconds\":0,\"bytes_in\":0,"
      "\"bytes_out\":0},"
      "{\"stage\":\"transport\",\"ops\":0,\"seconds\":0,\"bytes_in\":0,"
      "\"bytes_out\":0},"
      "{\"stage\":\"storage\",\"ops\":0,\"seconds\":0,\"bytes_in\":0,"
      "\"bytes_out\":0}],\"plugin_seconds\":0.25,"
      "\"plugins\":[{\"name\":\"stats\",\"iterations\":3,\"blocks\":6,"
      "\"bytes\":4096,\"seconds\":0.25,\"max_iteration_seconds\":0.1,"
      "\"errors\":0,\"overruns\":0,\"disabled\":false}],"
      "\"alerts\":[\"slo: write p95 11ms > 10ms\"]}");
}

TEST(Snapshot, TenantTableOmittedWhenEmptyEmittedWhenNot) {
  MonitorSnapshot s = sample_snapshot();
  // No tenants (the single-app case): the key is absent entirely, so
  // pre-facility consumers see an unchanged document.
  ASSERT_TRUE(s.tenants.empty());
  EXPECT_EQ(s.to_json().find("\"tenants\""), std::string::npos);

  TenantRow row;
  row.id = 3;
  row.name = "cm1-a";
  row.tier = "staging-tier";
  row.p95_seconds = 0.25;
  row.bytes = 1024;
  row.slo = "hot";
  s.tenants.push_back(row);
  auto r = Json::parse(s.to_json());
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  const Json& tenants = r.value().at("tenants");
  ASSERT_TRUE(tenants.is_array());
  ASSERT_EQ(tenants.size(), 1u);
  const Json& t = tenants.at(std::size_t{0});
  EXPECT_EQ(t.at("id").as_int(), 3);
  EXPECT_EQ(t.at("name").as_string(), "cm1-a");
  EXPECT_EQ(t.at("tier").as_string(), "staging-tier");
  EXPECT_NEAR(t.at("p95_s").as_number(), 0.25, 1e-12);
  EXPECT_EQ(t.at("bytes").as_int(), 1024);
  EXPECT_EQ(t.at("slo").as_string(), "hot");
}

TEST(Snapshot, LedgerIsNullWithoutChecker) {
  MonitorSnapshot s = sample_snapshot();
  s.ledger_valid = false;
  auto r = Json::parse(s.to_json());
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(r.value().at("ledger").is_null());
}

TEST(Slo, AlertsFireOnThresholdBreach) {
  const MonitorSnapshot s = sample_snapshot();  // p95 well above 1 ms
  SloPolicy slo;
  slo.p95_ms = 1.0;
  slo.max_ms = 10.0;
  const auto alerts = evaluate_slo(s, slo);
  ASSERT_EQ(alerts.size(), 2u);
  EXPECT_NE(alerts[0].find("p95"), std::string::npos);
  EXPECT_NE(alerts[1].find("max"), std::string::npos);

  SloPolicy lax;
  lax.p95_ms = 1000.0;
  EXPECT_TRUE(evaluate_slo(s, lax).empty());
  EXPECT_TRUE(evaluate_slo(s, SloPolicy{}).empty());  // 0 = disabled
}

// --------------------------------------------------------- protocol

class ServerFixture : public ::testing::Test {
 protected:
  void start(const std::string& tag, SloPolicy slo = {}) {
    opts_.socket_path = test_socket(tag);
    opts_.slo = slo;
    server_ = std::make_unique<MonitorServer>(
        opts_, [this]() {
          ++polls_;
          return sample_snapshot();
        });
    ASSERT_TRUE(server_->start().is_ok());
  }

  void TearDown() override {
    if (server_) server_->stop();
  }

  MonitorOptions opts_;
  std::unique_ptr<MonitorServer> server_;
  std::atomic<int> polls_{0};
};

TEST_F(ServerFixture, PingSnapshotSubscribeQuit) {
  start("proto");
  MonitorClient client;
  ASSERT_TRUE(client.connect(opts_.socket_path).is_ok());
  EXPECT_TRUE(client.ping().is_ok());

  auto snap = client.snapshot();
  ASSERT_TRUE(snap.is_ok()) << snap.status().to_string();
  EXPECT_EQ(snap.value().at("type").as_string(), "snapshot");
  EXPECT_EQ(snap.value().at("seq").as_int(), 1);
  EXPECT_EQ(snap.value().at("source").as_string(), "test");

  ASSERT_TRUE(client.subscribe(/*interval_ms=*/10).is_ok());
  // First streamed frame arrives immediately, then periodically.
  auto f1 = client.next();
  auto f2 = client.next();
  ASSERT_TRUE(f1.is_ok());
  ASSERT_TRUE(f2.is_ok());
  EXPECT_GT(f2.value().at("seq").as_int(), f1.value().at("seq").as_int());

  ASSERT_TRUE(client.send_line("unsubscribe").is_ok());
  auto ack = client.next();
  bool saw_ack = false;
  // Skip any in-flight stream frames before the ack.
  for (int i = 0; i < 5 && ack.is_ok(); ++i) {
    if (ack.value().at("type").as_string() == "unsubscribed") {
      saw_ack = true;
      break;
    }
    ack = client.next();
  }
  EXPECT_TRUE(saw_ack);

  ASSERT_TRUE(client.send_line("quit").is_ok());
  auto bye = client.next();
  ASSERT_TRUE(bye.is_ok());
  EXPECT_EQ(bye.value().at("type").as_string(), "bye");
  // Server closes after bye.
  EXPECT_FALSE(client.read_line(500).is_ok());
}

TEST_F(ServerFixture, UnknownCommandsGetErrorLines) {
  start("badcmd");
  MonitorClient client;
  ASSERT_TRUE(client.connect(opts_.socket_path).is_ok());
  ASSERT_TRUE(client.send_line("frobnicate").is_ok());
  auto reply = client.next();
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(reply.value().at("type").as_string(), "error");
  EXPECT_FALSE(reply.value().at("ok").as_bool(true));
  // Still serving afterwards.
  EXPECT_TRUE(client.ping().is_ok());
  EXPECT_GE(server_->stats().bad_commands, 1u);
}

TEST_F(ServerFixture, SubscribeRejectsBadInterval) {
  start("badint");
  MonitorClient client;
  ASSERT_TRUE(client.connect(opts_.socket_path).is_ok());
  ASSERT_TRUE(client.send_line("subscribe nonsense").is_ok());
  auto reply = client.next();
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(reply.value().at("type").as_string(), "error");
  ASSERT_TRUE(client.send_line("subscribe -5").is_ok());
  reply = client.next();
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(reply.value().at("type").as_string(), "error");
}

TEST_F(ServerFixture, DisconnectMidStreamLeavesServerServing) {
  start("dropper");
  // Subscriber A at a fast interval, then vanishes without unsubscribe.
  auto dropper = std::make_unique<MonitorClient>();
  ASSERT_TRUE(dropper->connect(opts_.socket_path).is_ok());
  ASSERT_TRUE(dropper->subscribe(/*interval_ms=*/5).is_ok());
  ASSERT_TRUE(dropper->next().is_ok());  // stream is live
  dropper->close();                      // mid-stream disconnect

  // Survivor B keeps getting service afterwards.
  MonitorClient survivor;
  ASSERT_TRUE(survivor.connect(opts_.socket_path).is_ok());
  for (int i = 0; i < 3; ++i) {
    auto snap = survivor.snapshot();
    ASSERT_TRUE(snap.is_ok()) << snap.status().to_string();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // The server eventually notices the dropped subscriber (its periodic
  // send hits EPIPE/ECONNRESET) and cleans it up without dying.
  const auto deadline = WallClock::now() + std::chrono::seconds(5);
  while (server_->stats().disconnected < 1 && WallClock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(server_->stats().disconnected, 1u);
  EXPECT_TRUE(server_->running());
  EXPECT_TRUE(survivor.ping().is_ok());
}

// Regression: a connection accepted in a poll round has no pollfd entry
// yet in that round. The loop used to read the stale fds slot left by a
// previously disconnected client (POLLIN|POLLHUP revents) and drop the
// fresh connection before its first command was ever read.
TEST_F(ServerFixture, ClientAcceptedAfterPriorDisconnectIsServed) {
  start("reconnect");
  {
    MonitorClient first;
    ASSERT_TRUE(first.connect(opts_.socket_path).is_ok());
    ASSERT_TRUE(first.snapshot().is_ok());
  }  // destructor closes; the server's next round sees POLLIN|POLLHUP
  const auto deadline = WallClock::now() + std::chrono::seconds(5);
  while (server_->stats().disconnected < 1 && WallClock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GE(server_->stats().disconnected, 1u);

  MonitorClient second;
  ASSERT_TRUE(second.connect(opts_.socket_path).is_ok());
  ASSERT_TRUE(second.subscribe(/*interval_ms=*/20).is_ok());
  auto snap = second.next();
  ASSERT_TRUE(snap.is_ok()) << snap.status().to_string();
  EXPECT_EQ(snap.value().at("type").as_string(), "snapshot");
  EXPECT_TRUE(server_->running());
}

TEST_F(ServerFixture, SloAlertsAppearOnEmittedSnapshots) {
  SloPolicy slo;
  slo.p95_ms = 1.0;  // sample jitter p95 is ~13 ms
  start("slo", slo);
  MonitorClient client;
  ASSERT_TRUE(client.connect(opts_.socket_path).is_ok());
  auto snap = client.snapshot();
  ASSERT_TRUE(snap.is_ok());
  ASSERT_GE(snap.value().at("alerts").size(), 1u);
  EXPECT_NE(snap.value().at("alerts").at(std::size_t{0}).as_string().find(
                "p95"),
            std::string::npos);
  EXPECT_GE(server_->stats().alerts_raised, 1u);
}

TEST_F(ServerFixture, StopIsIdempotentAndUnlinksSocket) {
  start("stop");
  const std::string path = opts_.socket_path;
  EXPECT_TRUE(std::filesystem::exists(path));
  server_->stop();
  server_->stop();
  EXPECT_FALSE(server_->running());
  EXPECT_FALSE(std::filesystem::exists(path));
}

// --------------------------------------------------- node integration

TEST(NodeMonitor, ObservesLiveSimulation) {
  constexpr const char* kXml = R"(
<damaris>
  <buffer size="8388608" policy="firstfit"/>
  <layout name="grid" type="float32" dimensions="256"/>
  <variable name="field" layout="grid"/>
  <plugins>
    <plugin name="stats" type="statistics" variables="field"/>
    <plugin name="index" type="minmax_index" variables="field"/>
    <plugin name="down" type="downsample" variables="field" stride="8"/>
  </plugins>
</damaris>)";
  auto cfg = config::Config::from_string(kXml);
  ASSERT_TRUE(cfg.is_ok());
  const auto dir = std::filesystem::temp_directory_path() /
                   ("monitor_node_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  check::FaultChecker checker;
  core::NodeOptions nopts;
  nopts.output_dir = dir.string();
  nopts.file_prefix = "mon";
  nopts.fault_checker = &checker;
  core::DamarisNode node(std::move(cfg.value()), 2, nopts);

  NodeSourceOptions sopts;
  sopts.label = "monitor_test";
  sopts.checker = &checker;
  MonitorOptions mopts;
  mopts.socket_path = test_socket("node");
  MonitorServer server(mopts, node_snapshot_fn(node, sopts));
  ASSERT_TRUE(server.start().is_ok());
  ASSERT_TRUE(node.start().is_ok());

  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&node, c] {
      core::Client client = node.client(c);
      std::vector<std::byte> payload(256 * sizeof(float), std::byte{0x11});
      for (int it = 0; it < 8; ++it) {
        ASSERT_TRUE(client.write("field", it, payload).is_ok());
        ASSERT_TRUE(client.end_iteration(it).is_ok());
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      ASSERT_TRUE(client.finalize().is_ok());
    });
  }

  // Poll the live socket while the workload runs.
  MonitorClient mc;
  ASSERT_TRUE(mc.connect(mopts.socket_path).is_ok());
  std::int64_t best_iterations = 0;
  std::int64_t best_jitter = 0;
  std::int64_t best_published = 0;
  std::size_t best_plugins = 0;
  std::string mode;
  const auto deadline = WallClock::now() + std::chrono::seconds(10);
  while (WallClock::now() < deadline) {
    auto snap = mc.snapshot(2000);
    ASSERT_TRUE(snap.is_ok()) << snap.status().to_string();
    const Json& j = snap.value();
    best_iterations = std::max(best_iterations, j.at("iterations").as_int());
    best_jitter =
        std::max(best_jitter, j.at("write_jitter").at("count").as_int());
    best_published =
        std::max(best_published, j.at("ledger").at("published").as_int());
    best_plugins = std::max(best_plugins, j.at("plugins").size());
    if (j.at("degrade").at("mode").is_string()) {
      mode = j.at("degrade").at("mode").as_string();
    }
    if (best_iterations > 0 && best_jitter > 0 && best_published > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (auto& t : clients) t.join();
  ASSERT_TRUE(node.stop().is_ok());

  EXPECT_GT(best_iterations, 0);
  EXPECT_GT(best_jitter, 0);
  EXPECT_GT(best_published, 0);
  EXPECT_FALSE(mode.empty());
  EXPECT_EQ(best_plugins, 3u);  // one row per plugin, while the run is live

  // After the run, the final snapshot carries the plugin table.
  auto final_snap = mc.snapshot();
  ASSERT_TRUE(final_snap.is_ok());
  ASSERT_EQ(final_snap.value().at("plugins").size(), 3u);
  EXPECT_GT(
      final_snap.value().at("plugins").at(std::size_t{0}).at("blocks").as_int(),
      0);
  mc.close();
  server.stop();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace dmr::monitor
