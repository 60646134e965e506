// Tests for the in-situ analytics chain (src/plugin):
//  - builtin correctness: statistics moments, min/max range index,
//    strided downsampling — all on known payloads;
//  - failure discipline: erroring and throwing plugins are counted and
//    never fail the iteration; on_error=disable drops the offender;
//  - budget discipline: a plugin overrunning the iteration budget is
//    charged the overrun, the rest of the chain is skipped, and
//    on_overrun=disable removes it;
//  - config-driven construction (build_pipeline from a parsed
//    <plugins> section, unknown types rejected);
//  - node integration: a DamarisNode with <plugins> publishes
//    analytics and per-plugin accounting; a zero-plugin config
//    produces byte-identical output files to a plugin-less run;
//  - idle budget (paper Fig 5): at fig6 scale the builtin chain fits
//    the dedicated core's measured spare time, deterministically.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "config/config.hpp"
#include "core/damaris.hpp"
#include "plugin/builtin.hpp"
#include "plugin/pipeline.hpp"

namespace dmr::plugin {
namespace {

format::Layout float_layout(std::uint64_t n) {
  format::Layout l;
  l.type = format::DataType::kFloat32;
  l.dims = {n};
  return l;
}

std::vector<std::byte> float_bytes(const std::vector<float>& vals) {
  std::vector<std::byte> out(vals.size() * sizeof(float));
  std::memcpy(out.data(), vals.data(), out.size());
  return out;
}

BlockView view_of(std::string_view variable, std::int64_t iteration,
                  int source, const format::Layout& layout,
                  const std::vector<std::byte>& data) {
  BlockView v;
  v.variable = variable;
  v.iteration = iteration;
  v.source = source;
  v.layout = &layout;
  v.data = {data.data(), data.size()};
  return v;
}

/// Test double with a scriptable failure mode.
class ScriptedPlugin : public BlockPlugin {
 public:
  enum class Mode { kOk, kError, kThrow, kSleep };

  ScriptedPlugin(std::string name, Mode mode, double sleep_seconds = 0.0)
      : name_(std::move(name)), mode_(mode), sleep_seconds_(sleep_seconds) {}

  const std::string& name() const override { return name_; }

  Status process_block(const BlockView& block, PluginContext& ctx) override {
    ++calls;
    ctx.publish(name_ + ".calls", static_cast<double>(calls));
    switch (mode_) {
      case Mode::kOk:
        return Status::ok();
      case Mode::kError:
        return internal_error("scripted failure");
      case Mode::kThrow:
        throw std::runtime_error("scripted throw");
      case Mode::kSleep:
        std::this_thread::sleep_for(
            std::chrono::duration<double>(sleep_seconds_));
        return Status::ok();
    }
    (void)block;
    return Status::ok();
  }

  int calls = 0;

 private:
  std::string name_;
  Mode mode_;
  double sleep_seconds_;
};

// --------------------------------------------------------- builtins

TEST(StatisticsPlugin, PublishesExactMomentsAcrossBlocks) {
  StatisticsPlugin stats("stats");
  const auto layout = float_layout(4);
  const auto b0 = float_bytes({1.0f, 2.0f, 3.0f, 4.0f});
  const auto b1 = float_bytes({5.0f, 6.0f, 7.0f, 8.0f});
  std::map<std::string, double> published;
  PluginContext ctx;
  ctx.publish = [&](const std::string& k, double v) { published[k] = v; };

  const auto v0 = view_of("field", 3, 0, layout, b0);
  const auto v1 = view_of("field", 3, 1, layout, b1);
  ASSERT_TRUE(stats.process_block(v0, ctx).is_ok());
  ASSERT_TRUE(stats.process_block(v1, ctx).is_ok());
  ASSERT_TRUE(stats.end_iteration(3, ctx).is_ok());

  EXPECT_DOUBLE_EQ(published.at("field.count"), 8.0);
  EXPECT_DOUBLE_EQ(published.at("field.min"), 1.0);
  EXPECT_DOUBLE_EQ(published.at("field.max"), 8.0);
  EXPECT_DOUBLE_EQ(published.at("field.mean"), 4.5);
  // Sample stddev of 1..8: m2 = 42, 42 / (8 - 1) = 6.
  EXPECT_NEAR(published.at("field.stddev"), std::sqrt(6.0), 1e-12);
}

TEST(StatisticsPlugin, ResetsBetweenIterations) {
  StatisticsPlugin stats("stats");
  const auto layout = float_layout(2);
  const auto big = float_bytes({100.0f, 200.0f});
  const auto small = float_bytes({1.0f, 2.0f});
  std::map<std::string, double> published;
  PluginContext ctx;
  ctx.publish = [&](const std::string& k, double v) { published[k] = v; };

  auto v = view_of("field", 0, 0, layout, big);
  ASSERT_TRUE(stats.process_block(v, ctx).is_ok());
  ASSERT_TRUE(stats.end_iteration(0, ctx).is_ok());
  v = view_of("field", 1, 0, layout, small);
  ASSERT_TRUE(stats.process_block(v, ctx).is_ok());
  ASSERT_TRUE(stats.end_iteration(1, ctx).is_ok());

  // Iteration 1's stats must not remember iteration 0's values.
  EXPECT_DOUBLE_EQ(published.at("field.max"), 2.0);
  EXPECT_DOUBLE_EQ(published.at("field.count"), 2.0);
}

TEST(MinMaxIndexPlugin, AnswersRangeQueries) {
  MinMaxIndexPlugin index("index");
  const auto layout = float_layout(3);
  const auto cold = float_bytes({0.0f, 1.0f, 2.0f});
  const auto warm = float_bytes({10.0f, 11.0f, 12.0f});
  const auto hot = float_bytes({100.0f, 101.0f, 102.0f});
  PluginContext ctx;
  ctx.publish = [](const std::string&, double) {};

  int source = 0;
  for (const auto* data : {&cold, &warm, &hot}) {
    const auto v = view_of("field", 7, source++, layout, *data);
    ASSERT_TRUE(index.process_block(v, ctx).is_ok());
  }
  ASSERT_EQ(index.entries().size(), 3u);

  const auto mid = index.lookup("field", 5.0, 50.0);
  ASSERT_EQ(mid.size(), 1u);
  EXPECT_EQ(mid[0].source, 1);
  EXPECT_DOUBLE_EQ(mid[0].min, 10.0);
  EXPECT_DOUBLE_EQ(mid[0].max, 12.0);
  EXPECT_TRUE(index.lookup("field", 1000.0, 2000.0).empty());
  EXPECT_TRUE(index.lookup("other", 0.0, 1000.0).empty());
  EXPECT_EQ(index.lookup("field", -10.0, 1000.0).size(), 3u);
}

TEST(MinMaxIndexPlugin, EvictsOldestBeyondCapacity) {
  MinMaxIndexPlugin index("index", /*capacity=*/2);
  const auto layout = float_layout(1);
  PluginContext ctx;
  ctx.publish = [](const std::string&, double) {};
  for (int it = 0; it < 5; ++it) {
    const auto data = float_bytes({static_cast<float>(it)});
    const auto v = view_of("field", it, 0, layout, data);
    ASSERT_TRUE(index.process_block(v, ctx).is_ok());
  }
  ASSERT_EQ(index.entries().size(), 2u);
  EXPECT_EQ(index.entries()[0].iteration, 3);
  EXPECT_EQ(index.entries()[1].iteration, 4);
}

TEST(DownsamplePlugin, KeepsEveryStrideThElement) {
  DownsamplePlugin down("down", /*stride=*/3);
  const auto layout = float_layout(8);
  const auto data = float_bytes({0, 1, 2, 3, 4, 5, 6, 7});
  std::map<std::string, double> published;
  PluginContext ctx;
  ctx.publish = [&](const std::string& k, double v) { published[k] = v; };

  const auto v = view_of("field", 0, 0, layout, data);
  ASSERT_TRUE(down.process_block(v, ctx).is_ok());

  const auto& preview = down.latest("field");
  ASSERT_EQ(preview.size(), 3u);  // elements 0, 3, 6
  EXPECT_DOUBLE_EQ(preview[0], 0.0);
  EXPECT_DOUBLE_EQ(preview[1], 3.0);
  EXPECT_DOUBLE_EQ(preview[2], 6.0);
  EXPECT_DOUBLE_EQ(published.at("field.downsample.elements"), 3.0);
  EXPECT_DOUBLE_EQ(published.at("field.downsample.sum"), 9.0);
}

TEST(ElementAsDouble, CoversIntegralAndFloatTypes) {
  const std::int32_t i = -42;
  const double d = 2.5;
  const std::uint8_t u8 = 200;
  EXPECT_DOUBLE_EQ(element_as_double(format::DataType::kInt32,
                                     reinterpret_cast<const std::byte*>(&i)),
                   -42.0);
  EXPECT_DOUBLE_EQ(element_as_double(format::DataType::kFloat64,
                                     reinterpret_cast<const std::byte*>(&d)),
                   2.5);
  EXPECT_DOUBLE_EQ(element_as_double(format::DataType::kUInt8,
                                     reinterpret_cast<const std::byte*>(&u8)),
                   200.0);
}

// --------------------------------------------- pipeline failure modes

TEST(PluginPipeline, ErrorsAreCountedAndNeverFailTheIteration) {
  PluginPipeline pipe;  // on_error = warn
  auto bad = std::make_unique<ScriptedPlugin>("bad", ScriptedPlugin::Mode::kError);
  auto* bad_raw = bad.get();
  pipe.add(std::move(bad));
  pipe.add(std::make_unique<ScriptedPlugin>("good", ScriptedPlugin::Mode::kOk));

  const auto layout = float_layout(1);
  const auto data = float_bytes({1.0f});
  const BlockView blocks[] = {view_of("field", 0, 0, layout, data)};
  PluginContext ctx;
  ctx.publish = [](const std::string&, double) {};

  // The chain reports the error but keeps the erroring plugin enabled.
  EXPECT_FALSE(pipe.run_iteration(0, blocks, ctx).is_ok());
  EXPECT_FALSE(pipe.run_iteration(1, blocks, ctx).is_ok());
  const auto stats = pipe.stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].errors, 2u);
  EXPECT_FALSE(stats[0].disabled);
  EXPECT_EQ(stats[1].blocks, 2u);  // downstream plugin still ran
  EXPECT_EQ(bad_raw->calls, 2);
}

TEST(PluginPipeline, ThrowingPluginIsAnError) {
  PluginPipeline pipe;
  pipe.add(std::make_unique<ScriptedPlugin>("boom", ScriptedPlugin::Mode::kThrow));
  const auto layout = float_layout(1);
  const auto data = float_bytes({1.0f});
  const BlockView blocks[] = {view_of("field", 0, 0, layout, data)};
  PluginContext ctx;
  ctx.publish = [](const std::string&, double) {};

  EXPECT_FALSE(pipe.run_iteration(0, blocks, ctx).is_ok());
  EXPECT_EQ(pipe.stats()[0].errors, 1u);
}

TEST(PluginPipeline, OnErrorDisableDropsThePlugin) {
  PipelineOptions opts;
  opts.on_error = FailurePolicy::kDisable;
  PluginPipeline pipe(opts);
  auto bad = std::make_unique<ScriptedPlugin>("bad", ScriptedPlugin::Mode::kError);
  auto* bad_raw = bad.get();
  pipe.add(std::move(bad));

  const auto layout = float_layout(1);
  const auto data = float_bytes({1.0f});
  const BlockView blocks[] = {view_of("field", 0, 0, layout, data)};
  PluginContext ctx;
  ctx.publish = [](const std::string&, double) {};

  EXPECT_FALSE(pipe.run_iteration(0, blocks, ctx).is_ok());
  // Disabled after the first error: the second iteration never calls it.
  EXPECT_TRUE(pipe.run_iteration(1, blocks, ctx).is_ok());
  EXPECT_EQ(bad_raw->calls, 1);
  EXPECT_TRUE(pipe.stats()[0].disabled);
}

TEST(PluginPipeline, BudgetOverrunSkipsRestOfChain) {
  PipelineOptions opts;
  opts.iteration_budget_seconds = 0.005;
  PluginPipeline pipe(opts);
  pipe.add(std::make_unique<ScriptedPlugin>("slow", ScriptedPlugin::Mode::kSleep,
                                            /*sleep_seconds=*/0.02));
  auto after = std::make_unique<ScriptedPlugin>("after", ScriptedPlugin::Mode::kOk);
  auto* after_raw = after.get();
  pipe.add(std::move(after));

  const auto layout = float_layout(1);
  const auto data = float_bytes({1.0f});
  const BlockView blocks[] = {view_of("field", 0, 0, layout, data)};
  PluginContext ctx;
  ctx.publish = [](const std::string&, double) {};

  EXPECT_TRUE(pipe.run_iteration(0, blocks, ctx).is_ok());
  const auto stats = pipe.stats();
  EXPECT_EQ(stats[0].overruns, 1u);
  EXPECT_FALSE(stats[0].disabled);   // warn keeps it in the chain
  EXPECT_EQ(after_raw->calls, 0);    // budget exhausted before it ran
  EXPECT_EQ(stats[1].iterations, 0u);
}

TEST(PluginPipeline, OnOverrunDisableRemovesTheOffender) {
  PipelineOptions opts;
  opts.iteration_budget_seconds = 0.005;
  opts.on_overrun = FailurePolicy::kDisable;
  PluginPipeline pipe(opts);
  auto slow = std::make_unique<ScriptedPlugin>("slow", ScriptedPlugin::Mode::kSleep,
                                               /*sleep_seconds=*/0.02);
  auto* slow_raw = slow.get();
  pipe.add(std::move(slow));

  const auto layout = float_layout(1);
  const auto data = float_bytes({1.0f});
  const BlockView blocks[] = {view_of("field", 0, 0, layout, data)};
  PluginContext ctx;
  ctx.publish = [](const std::string&, double) {};

  EXPECT_TRUE(pipe.run_iteration(0, blocks, ctx).is_ok());
  EXPECT_TRUE(pipe.run_iteration(1, blocks, ctx).is_ok());
  EXPECT_EQ(slow_raw->calls, 1);  // dropped after the overrun
  EXPECT_TRUE(pipe.stats()[0].disabled);
}

TEST(PluginPipeline, VariableFilterRoutesBlocks) {
  PluginPipeline pipe;
  auto only_a = std::make_unique<ScriptedPlugin>("a", ScriptedPlugin::Mode::kOk);
  auto* a_raw = only_a.get();
  pipe.add(std::move(only_a), {"alpha"});

  const auto layout = float_layout(1);
  const auto data = float_bytes({1.0f});
  const BlockView blocks[] = {view_of("alpha", 0, 0, layout, data),
                              view_of("beta", 0, 0, layout, data)};
  PluginContext ctx;
  ctx.publish = [](const std::string&, double) {};
  ASSERT_TRUE(pipe.run_iteration(0, blocks, ctx).is_ok());
  EXPECT_EQ(a_raw->calls, 1);
  EXPECT_EQ(pipe.stats()[0].blocks, 1u);
}

// ------------------------------------------------------ config glue

TEST(PluginRegistry, BuildsBuiltinsFromConfig) {
  config::PluginsConfig cfg;
  cfg.budget_ms = 10.0;
  cfg.on_error = "disable";
  for (const char* type : {"statistics", "minmax_index", "downsample"}) {
    config::PluginDecl d;
    d.name = type;
    d.type = type;
    d.variables = {"field"};
    cfg.plugins.push_back(d);
  }
  auto pipe = build_pipeline(cfg);
  ASSERT_TRUE(pipe.is_ok());
  EXPECT_EQ(pipe.value()->size(), 3u);
  EXPECT_NE(dynamic_cast<StatisticsPlugin*>(pipe.value()->find("statistics")),
            nullptr);
  EXPECT_NE(
      dynamic_cast<MinMaxIndexPlugin*>(pipe.value()->find("minmax_index")),
      nullptr);
  EXPECT_NE(dynamic_cast<DownsamplePlugin*>(pipe.value()->find("downsample")),
            nullptr);
  EXPECT_EQ(pipe.value()->options().on_error, FailurePolicy::kDisable);
  EXPECT_DOUBLE_EQ(pipe.value()->options().iteration_budget_seconds, 0.01);
}

TEST(PluginRegistry, RejectsUnknownType) {
  config::PluginsConfig cfg;
  config::PluginDecl d;
  d.name = "x";
  d.type = "no_such_plugin";
  cfg.plugins.push_back(d);
  EXPECT_EQ(build_pipeline(cfg).status().code(), ErrorCode::kNotFound);
}

// --------------------------------------------------- node integration

constexpr const char* kNodeXml = R"(
<damaris>
  <buffer size="8388608" policy="firstfit"/>
  <layout name="grid" type="float32" dimensions="64"/>
  <variable name="field" layout="grid"/>
  <plugins>
    <plugin name="stats" type="statistics" variables="field"/>
    <plugin name="down" type="downsample" variables="field" stride="4"/>
  </plugins>
</damaris>)";

constexpr const char* kNodeXmlNoPlugins = R"(
<damaris>
  <buffer size="8388608" policy="firstfit"/>
  <layout name="grid" type="float32" dimensions="64"/>
  <variable name="field" layout="grid"/>
</damaris>)";

constexpr const char* kNodeXmlEmptyPlugins = R"(
<damaris>
  <buffer size="8388608" policy="firstfit"/>
  <layout name="grid" type="float32" dimensions="64"/>
  <variable name="field" layout="grid"/>
  <plugins/>
</damaris>)";

/// Runs a 2-client, 3-iteration workload and returns the output dir's
/// file name -> contents map.
std::map<std::string, std::string> run_node(const char* xml,
                                            core::DamarisNode** out_node,
                                            const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("plugin_test_" + tag + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto cfg = config::Config::from_string(xml);
  EXPECT_TRUE(cfg.is_ok()) << cfg.status().to_string();
  core::NodeOptions opts;
  opts.output_dir = dir.string();
  opts.file_prefix = "t";
  auto node = std::make_unique<core::DamarisNode>(std::move(cfg.value()), 2,
                                                  opts);
  EXPECT_TRUE(node->start().is_ok());
  std::vector<std::thread> threads;
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&, c] {
      core::Client client = node->client(c);
      std::vector<float> vals(64);
      for (int it = 0; it < 3; ++it) {
        for (std::size_t i = 0; i < vals.size(); ++i) {
          vals[i] = static_cast<float>(c * 100 + it * 10) +
                    static_cast<float>(i) * 0.25f;
        }
        std::vector<std::byte> payload(vals.size() * sizeof(float));
        std::memcpy(payload.data(), vals.data(), payload.size());
        EXPECT_TRUE(client.write("field", it, payload).is_ok());
        EXPECT_TRUE(client.end_iteration(it).is_ok());
      }
      EXPECT_TRUE(client.finalize().is_ok());
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_TRUE(node->stop().is_ok());

  std::map<std::string, std::string> files;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    std::ifstream in(e.path(), std::ios::binary);
    std::string body((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    files[e.path().filename().string()] = std::move(body);
  }
  if (out_node != nullptr) {
    *out_node = node.release();  // caller inspects, then deletes
  }
  std::filesystem::remove_all(dir);
  return files;
}

TEST(NodePlugins, PublishesAnalyticsAndAccounting) {
  core::DamarisNode* node = nullptr;
  run_node(kNodeXml, &node, "analytics");
  ASSERT_NE(node, nullptr);
  const auto analytics = node->analytics();
  EXPECT_GT(analytics.count("field.mean"), 0u);
  EXPECT_GT(analytics.count("field.downsample.elements"), 0u);
  // 2 clients x 3 iterations published 6 blocks; the stats plugin saw
  // every one of them.
  const auto stats = node->plugin_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].name, "stats");
  EXPECT_EQ(stats[0].blocks, 6u);
  EXPECT_EQ(stats[0].bytes, 6u * 64u * sizeof(float));
  EXPECT_EQ(stats[0].errors, 0u);
  EXPECT_GT(stats[0].seconds, 0.0);
  delete node;
}

TEST(NodePlugins, ZeroPluginConfigMatchesPluginLessRunByteForByte) {
  // An empty <plugins/> section must take the exact historical code
  // path: byte-identical output files to a config with no section.
  const auto with_empty =
      run_node(kNodeXmlEmptyPlugins, nullptr, "parity_a");
  const auto without = run_node(kNodeXmlNoPlugins, nullptr, "parity_b");
  ASSERT_FALSE(without.empty());
  EXPECT_EQ(with_empty, without);

  // And a config whose only difference is the plugin chain must leave
  // the persisted bytes untouched: plugins observe, never mutate.
  const auto with_plugins = run_node(kNodeXml, nullptr, "parity_c");
  EXPECT_EQ(with_plugins, without);
}

TEST(NodePlugins, PluginSecondsZeroWithoutPlugins) {
  core::DamarisNode* node = nullptr;
  run_node(kNodeXmlNoPlugins, &node, "zero");
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->block_plugins(), nullptr);
  EXPECT_TRUE(node->plugin_stats().empty());
  for (const auto& rec : node->stats().iterations) {
    EXPECT_DOUBLE_EQ(rec.plugin_seconds, 0.0);
  }
  delete node;
}

// ------------------------------------------ idle budget (paper Fig 5)

// Fig 6 scale: 12 clients (one Kraken node's compute cores), 12
// iterations of one 64 KiB float grid each, and 15 ms of emulated
// compute between iterations. I/O overlapping a longer compute phase is
// where the dedicated core's spare time comes from; the spare time of a
// plugin-less run is the budget in-situ plugins may use.
constexpr int kBudgetClients = 12;
constexpr int kBudgetIterations = 12;
constexpr int kBudgetElements = 128 * 128;
constexpr auto kComputePhase = std::chrono::milliseconds(15);

constexpr const char* kBudgetXmlOff = R"(
<damaris>
  <buffer size="67108864" policy="firstfit"/>
  <layout name="grid" type="float32" dimensions="128,128"/>
  <variable name="field" layout="grid"/>
</damaris>)";

constexpr const char* kBudgetXmlOn = R"(
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

struct BudgetRun {
  double idle_seconds = 0.0;  // shards x wall - persist - plugin seconds
  double plugin_seconds = 0.0;
  std::map<std::string, double> analytics;
  std::vector<PluginStats> plugins;
};

BudgetRun run_budget(const char* xml) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("plugin_budget_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto cfg = config::Config::from_string(xml);
  EXPECT_TRUE(cfg.is_ok()) << cfg.status().to_string();
  core::NodeOptions opts;
  opts.output_dir = dir.string();
  opts.file_prefix = "insitu";
  core::DamarisNode node(std::move(cfg.value()), kBudgetClients, opts);

  const auto t0 = WallClock::now();
  EXPECT_TRUE(node.start().is_ok());
  std::vector<std::thread> threads;
  for (int c = 0; c < kBudgetClients; ++c) {
    threads.emplace_back([&, c] {
      core::Client client = node.client(c);
      std::vector<float> vals(kBudgetElements);
      for (int it = 0; it < kBudgetIterations; ++it) {
        for (int i = 0; i < kBudgetElements; ++i) {
          vals[i] = static_cast<float>(c) * 100.0f +
                    static_cast<float>(it) * 10.0f +
                    static_cast<float>(i % 97) * 0.5f;
        }
        std::vector<std::byte> payload(vals.size() * sizeof(float));
        std::memcpy(payload.data(), vals.data(), payload.size());
        EXPECT_TRUE(client.write("field", it, payload).is_ok());
        EXPECT_TRUE(client.end_iteration(it).is_ok());
        std::this_thread::sleep_for(kComputePhase);
      }
      EXPECT_TRUE(client.finalize().is_ok());
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_TRUE(node.stop().is_ok());

  BudgetRun out;
  const core::ServerStats stats = node.stats();
  out.idle_seconds = static_cast<double>(stats.shards) * seconds_since(t0);
  for (const core::IterationRecord& rec : stats.iterations) {
    out.idle_seconds -= rec.write_seconds + rec.plugin_seconds;
    out.plugin_seconds += rec.plugin_seconds;
  }
  out.analytics = node.analytics();
  out.plugins = node.plugin_stats();
  std::filesystem::remove_all(dir);
  return out;
}

TEST(NodePlugins, ChainFitsTheIdleBudget) {
  const BudgetRun off = run_budget(kBudgetXmlOff);
  const BudgetRun on = run_budget(kBudgetXmlOn);
  EXPECT_GT(off.idle_seconds, 0.0);
  EXPECT_LE(on.plugin_seconds, off.idle_seconds);
  EXPECT_FALSE(on.analytics.empty());
  ASSERT_EQ(on.plugins.size(), 3u);
  for (const PluginStats& p : on.plugins) {
    EXPECT_EQ(p.errors, 0u) << p.name;
    EXPECT_EQ(p.overruns, 0u) << p.name;
  }

  const BudgetRun again = run_budget(kBudgetXmlOn);
  EXPECT_EQ(on.analytics, again.analytics);
  ASSERT_EQ(again.plugins.size(), 3u);
  for (std::size_t i = 0; i < on.plugins.size(); ++i) {
    EXPECT_EQ(on.plugins[i].name, again.plugins[i].name);
    EXPECT_EQ(on.plugins[i].blocks, again.plugins[i].blocks);
    EXPECT_EQ(on.plugins[i].bytes, again.plugins[i].bytes);
  }
}

}  // namespace
}  // namespace dmr::plugin
