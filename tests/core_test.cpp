#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "core/capi.hpp"
#include "core/damaris.hpp"
#include "core/metadata.hpp"
#include "format/dh5.hpp"

#ifdef __SANITIZE_ADDRESS__
// The standard makes a failed `new (std::nothrow)` return null, but
// AddressSanitizer aborts on an oversized request unless its allocator
// may return null. The unallocatable-buffer tests below rely on the
// standard behaviour. ASAN_OPTIONS set by the user still take
// precedence.
extern "C" const char* __asan_default_options() {
  return "allocator_may_return_null=1";
}
#endif

namespace dmr::core {
namespace {

// ---------------------------------------------------------- metadata

// Single-letter variables; ids follow name order, as the node assigns them.
VariableBlock make_block(std::string_view var, std::int64_t it, int src,
                         Bytes size = 64) {
  VariableBlock b;
  b.variable = var;
  b.variable_id = static_cast<std::uint32_t>(var[0] - 'a');
  b.iteration = it;
  b.source = src;
  b.block = shm::Block{0, size, src};
  b.size = size;
  return b;
}

std::uint32_t id_of(std::string_view var) { return make_block(var, 0, 0).variable_id; }

constexpr std::size_t kLetters = 26;  // variable ids 'a'..'z'

TEST(Metadata, AddAndFind) {
  MetadataManager m(kLetters, /*sources=*/2, /*stride=*/1);
  EXPECT_FALSE(m.add(make_block("u", 1, 0)).has_value());
  EXPECT_NE(m.find(id_of("u"), 1, 0), nullptr);
  EXPECT_EQ(m.find(id_of("u"), 1, 1), nullptr);
  EXPECT_EQ(m.find(id_of("u"), 2, 0), nullptr);
  EXPECT_EQ(m.find(id_of("v"), 1, 0), nullptr);
  EXPECT_EQ(m.total_blocks(), 1u);
}

TEST(Metadata, DuplicateReplacedAndReturned) {
  MetadataManager m(kLetters, /*sources=*/2, /*stride=*/1);
  m.add(make_block("u", 1, 0, 64));
  auto replaced = m.add(make_block("u", 1, 0, 128));
  ASSERT_TRUE(replaced.has_value());
  EXPECT_EQ(replaced->size, 64u);
  EXPECT_EQ(m.total_blocks(), 1u);
  EXPECT_EQ(m.find(id_of("u"), 1, 0)->size, 128u);
}

TEST(Metadata, BlocksOfIteration) {
  MetadataManager m(kLetters, /*sources=*/2, /*stride=*/1);
  m.add(make_block("u", 1, 0));
  m.add(make_block("u", 1, 1));
  m.add(make_block("v", 1, 0));
  m.add(make_block("u", 2, 0));
  EXPECT_EQ(m.blocks_of(1).size(), 3u);
  EXPECT_EQ(m.blocks_of(2).size(), 1u);
  EXPECT_TRUE(m.blocks_of(3).empty());
}

TEST(Metadata, TakeIterationRemoves) {
  MetadataManager m(kLetters, /*sources=*/2, /*stride=*/1);
  m.add(make_block("u", 1, 0, 10));
  m.add(make_block("v", 1, 0, 20));
  m.add(make_block("u", 2, 0, 30));
  auto taken = m.take_iteration(1);
  EXPECT_EQ(taken.size(), 2u);
  EXPECT_EQ(m.total_blocks(), 1u);
  EXPECT_EQ(m.total_bytes(), 30u);
  EXPECT_EQ(m.pending_iterations(), (std::vector<std::int64_t>{2}));
}

TEST(Metadata, BlocksComeOutInVariableSourceOrder) {
  // Arrival order is the clients' interleaving; the dedicated core must
  // still see (variable, source) order, as the DH5 layout expects.
  MetadataManager m(kLetters, /*sources=*/2, /*stride=*/1);
  m.add(make_block("w", 4, 1));
  m.add(make_block("w", 4, 0));
  m.add(make_block("u", 4, 1));
  m.add(make_block("v", 4, 0));
  m.add(make_block("u", 4, 0));
  const std::vector<std::pair<std::string_view, int>> want = {
      {"u", 0}, {"u", 1}, {"v", 0}, {"w", 0}, {"w", 1}};
  std::vector<std::pair<std::string_view, int>> seen;
  for (const VariableBlock* b : m.blocks_of(4)) seen.emplace_back(b->variable, b->source);
  EXPECT_EQ(seen, want);
  seen.clear();
  for (const VariableBlock& b : m.take_iteration(4)) seen.emplace_back(b.variable, b.source);
  EXPECT_EQ(seen, want);
  EXPECT_EQ(m.total_blocks(), 0u);
}

TEST(Metadata, ShardTableHoldsOnlyItsClients) {
  // Shard 1 of 2 over four clients: clients 1 and 3, one row each.
  MetadataManager m(kLetters, /*sources=*/2, /*stride=*/2);
  m.add(make_block("u", 1, 3));
  m.add(make_block("u", 1, 1));
  std::vector<int> sources;
  for (const VariableBlock* b : m.blocks_of(1)) sources.push_back(b->source);
  EXPECT_EQ(sources, (std::vector<int>{1, 3}));
  EXPECT_NE(m.find(id_of("u"), 1, 3), nullptr);
  // Client 0 shares client 1's row but belongs to the other shard.
  EXPECT_EQ(m.find(id_of("u"), 1, 0), nullptr);
  EXPECT_EQ(m.find(id_of("u"), 1, 4), nullptr);
}

TEST(Metadata, PendingIterationsSorted) {
  MetadataManager m(kLetters, /*sources=*/2, /*stride=*/1);
  m.add(make_block("u", 5, 0));
  m.add(make_block("u", 1, 0));
  m.add(make_block("u", 3, 0));
  m.add(make_block("v", 3, 1));
  EXPECT_EQ(m.pending_iterations(), (std::vector<std::int64_t>{1, 3, 5}));
}

// ------------------------------------------------------------- node

const char* kConfigXml = R"(
<damaris>
  <buffer size="8388608" policy="firstfit"/>
  <layout name="grid" type="float32" dimensions="16,16,4"/>
  <layout name="packed_grid" type="float32" dimensions="16,16,4"/>
  <layout name="counts" type="int32" dimensions="8"/>
  <variable name="cells" layout="counts"/>
  <variable name="temperature" layout="grid"/>
  <variable name="wind" layout="grid" pipeline="lossless"/>
  <event name="analyze" action="stats" scope="local"/>
  <event name="dump" action="write" scope="global"/>
</damaris>)";

struct NodeFixture : public ::testing::Test {
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("damaris_core_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    auto cfg = config::Config::from_string(kConfigXml);
    ASSERT_TRUE(cfg.is_ok()) << cfg.status().to_string();
    NodeOptions opts;
    opts.output_dir = dir_.string();
    opts.file_prefix = "test";
    node_ = std::make_unique<DamarisNode>(std::move(cfg.value()), 3, opts);
  }
  void TearDown() override {
    node_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::vector<std::byte> field(float base) const {
    std::vector<float> f(16 * 16 * 4);
    for (std::size_t i = 0; i < f.size(); ++i) {
      f[i] = base + 0.01f * static_cast<float>(i % 100);
    }
    std::vector<std::byte> out(f.size() * 4);
    std::memcpy(out.data(), f.data(), out.size());
    return out;
  }

  std::filesystem::path dir_;
  std::unique_ptr<DamarisNode> node_;
};

TEST_F(NodeFixture, WritePersistsToDh5) {
  ASSERT_TRUE(node_->start().is_ok());
  auto data = field(300.0f);
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      Client cl = node_->client(c);
      ASSERT_TRUE(cl.write("temperature", 0, data).is_ok());
      ASSERT_TRUE(cl.write("wind", 0, data).is_ok());
      ASSERT_TRUE(cl.end_iteration(0).is_ok());
      ASSERT_TRUE(cl.finalize().is_ok());
    });
  }
  for (auto& t : clients) t.join();
  ASSERT_TRUE(node_->stop().is_ok());

  auto stats = node_->stats();
  ASSERT_EQ(stats.iterations.size(), 1u);
  EXPECT_EQ(stats.iterations[0].blocks, 6u);
  EXPECT_EQ(stats.iterations[0].raw_bytes, 6 * data.size());
  EXPECT_EQ(stats.persistency.files_written, 1u);

  // The file is valid DH5 with all six datasets; "wind" is compressed.
  auto reader = format::Dh5Reader::open(dir_.string() + "/test_node0_it0.dh5");
  ASSERT_TRUE(reader.is_ok()) << reader.status().to_string();
  EXPECT_EQ(reader.value().entries().size(), 6u);
  auto idx = reader.value().find("wind", 0, 2);
  ASSERT_TRUE(idx.has_value());
  EXPECT_FALSE(reader.value().entries()[*idx].codecs.empty());
  auto payload = reader.value().read(*idx);
  ASSERT_TRUE(payload.is_ok());
  EXPECT_EQ(payload.value(), data);
  // Shared memory fully reclaimed.
  EXPECT_EQ(node_->buffer().used(), 0u);
}

TEST_F(NodeFixture, ClientWriteIsFastAndServerDoesTheWork) {
  ASSERT_TRUE(node_->start().is_ok());
  Client cl = node_->client(0);
  auto data = field(1.0f);
  for (int it = 0; it < 5; ++it) {
    ASSERT_TRUE(cl.write("temperature", it, data).is_ok());
  }
  auto cs = cl.stats();
  EXPECT_EQ(cs.writes, 5u);
  EXPECT_EQ(cs.bytes_written, 5 * data.size());
  // A write is a memcpy: far under a millisecond per 4 KiB block here.
  EXPECT_LT(cs.write_seconds / 5, 0.01);
  for (int c = 0; c < 3; ++c) (void)node_->client(c).finalize();
  ASSERT_TRUE(node_->stop().is_ok());
}

TEST_F(NodeFixture, RejectsUnknownVariableAndWrongSize) {
  ASSERT_TRUE(node_->start().is_ok());
  Client cl = node_->client(0);
  auto data = field(0.0f);
  EXPECT_EQ(cl.write("pressure", 0, data).code(), ErrorCode::kNotFound);
  std::vector<std::byte> tiny(8);
  EXPECT_EQ(cl.write("temperature", 0, tiny).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(cl.signal("nonexistent", 0).code(), ErrorCode::kNotFound);
  for (int c = 0; c < 3; ++c) (void)node_->client(c).finalize();
  ASSERT_TRUE(node_->stop().is_ok());
}

TEST_F(NodeFixture, ClientCallsRejectIdsOutsideTheNode) {
  // Only clients 0..2 exist: a handle for any other id must not count
  // toward an iteration's end, a global event or the finalize quorum.
  ASSERT_TRUE(node_->start().is_ok());
  auto data = field(1.0f);
  for (int c = 0; c < 2; ++c) {
    ASSERT_TRUE(node_->client(c).write("temperature", 0, data).is_ok());
    ASSERT_TRUE(node_->client(c).end_iteration(0).is_ok());
  }
  for (int bad : {-1, 3, 5}) {
    Client cl = node_->client(bad);
    EXPECT_EQ(cl.end_iteration(0).code(), ErrorCode::kInvalidArgument) << bad;
    EXPECT_EQ(cl.signal("dump", 0).code(), ErrorCode::kInvalidArgument) << bad;
    EXPECT_EQ(cl.finalize().code(), ErrorCode::kInvalidArgument) << bad;
  }
  Client last = node_->client(2);
  ASSERT_TRUE(last.write("temperature", 0, data).is_ok());
  ASSERT_TRUE(last.end_iteration(0).is_ok());
  for (int c = 0; c < 3; ++c) EXPECT_TRUE(node_->client(c).finalize().is_ok());
  ASSERT_TRUE(node_->stop().is_ok());
  // Iteration 0 completed once, when client 2 ended it, with all three
  // blocks.
  const auto stats = node_->stats();
  ASSERT_EQ(stats.iterations.size(), 1u);
  EXPECT_EQ(stats.iterations[0].blocks, 3u);
}

TEST_F(NodeFixture, StatsPluginPublishesAnalytics) {
  ASSERT_TRUE(node_->start().is_ok());
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      Client cl = node_->client(c);
      auto data = field(100.0f * (c + 1));
      ASSERT_TRUE(cl.write("temperature", 0, data).is_ok());
      ASSERT_TRUE(cl.signal("analyze", 0).is_ok());
      ASSERT_TRUE(cl.end_iteration(0).is_ok());
      ASSERT_TRUE(cl.finalize().is_ok());
    });
  }
  for (auto& t : clients) t.join();
  ASSERT_TRUE(node_->stop().is_ok());
  auto analytics = node_->analytics();
  ASSERT_TRUE(analytics.count("temperature.max"));
  EXPECT_GE(analytics["temperature.max"], 300.0);
  EXPECT_GT(analytics["temperature.mean"], 0.0);
}

// "stats" is the statistics plugin over every block the event sees: one
// signal after all three clients wrote covers all three blocks, and an
// int32 variable gets its keys too.
TEST_F(NodeFixture, StatsActionCoversTheWholeIteration) {
  ASSERT_TRUE(node_->start().is_ok());
  for (int c = 0; c < 3; ++c) {
    ASSERT_TRUE(node_->client(c)
                    .write("temperature", 0, field(100.0f * (c + 1)))
                    .is_ok());
  }
  const std::vector<std::int32_t> cells = {-3, 7, 2, 0, 5, 1, 9, -1};
  Client first = node_->client(0);
  ASSERT_TRUE(first.write("cells", 0, std::as_bytes(std::span(cells))).is_ok());
  ASSERT_TRUE(first.signal("analyze", 0).is_ok());
  for (int c = 0; c < 3; ++c) {
    ASSERT_TRUE(node_->client(c).end_iteration(0).is_ok());
    ASSERT_TRUE(node_->client(c).finalize().is_ok());
  }
  ASSERT_TRUE(node_->stop().is_ok());
  auto analytics = node_->analytics();
  EXPECT_DOUBLE_EQ(analytics["temperature.count"], 3 * 16 * 16 * 4);
  EXPECT_NEAR(analytics["temperature.min"], 100.0, 1e-4);
  EXPECT_NEAR(analytics["temperature.max"], 300.99, 1e-4);
  // i % 100 over 1024 elements averages 48.609375.
  EXPECT_NEAR(analytics["temperature.mean"], 200.48609375, 1e-3);
  EXPECT_EQ(analytics.count("temperature.stddev"), 1u);
  EXPECT_DOUBLE_EQ(analytics["cells.count"], 8.0);
  EXPECT_DOUBLE_EQ(analytics["cells.min"], -3.0);
  EXPECT_DOUBLE_EQ(analytics["cells.max"], 9.0);
  EXPECT_DOUBLE_EQ(analytics["cells.mean"], 2.5);
}

// Analytics are consumed in serialized form (vis/render tables, the
// steering loop's published keys): pin the sorted-key contract so a
// switch to a hash map can never leak seed-dependent order downstream.
TEST_F(NodeFixture, AnalyticsIterateInSortedKeyOrder) {
  node_->publish_analytic("zeta.max", 3.0);
  node_->publish_analytic("alpha.mean", 1.0);
  node_->publish_analytic("mid.min", 2.0);
  node_->publish_analytic("alpha.max", 4.0);
  std::vector<std::string> keys;
  for (const auto& [key, value] : node_->analytics()) keys.push_back(key);
  const std::vector<std::string> want = {"alpha.max", "alpha.mean", "mid.min",
                                         "zeta.max"};
  EXPECT_EQ(keys, want);
}

TEST_F(NodeFixture, CustomPluginRuns) {
  std::atomic<int> calls{0};
  node_->plugins().register_action("do_something",
                                   [&](EventContext&) { calls.fetch_add(1); });
  // Rebuild the config to bind an event to the custom action — reuse the
  // "analyze" event by re-registering its action instead.
  node_->plugins().register_action("stats",
                                   [&](EventContext&) { calls.fetch_add(1); });
  ASSERT_TRUE(node_->start().is_ok());
  Client cl = node_->client(0);
  ASSERT_TRUE(cl.signal("analyze", 0).is_ok());
  for (int c = 0; c < 3; ++c) (void)node_->client(c).finalize();
  ASSERT_TRUE(node_->stop().is_ok());
  EXPECT_EQ(calls.load(), 1);
}

TEST_F(NodeFixture, GlobalEventFiresOncePerIteration) {
  std::atomic<int> calls{0};
  node_->plugins().register_action("write",
                                   [&](EventContext&) { calls.fetch_add(1); });
  ASSERT_TRUE(node_->start().is_ok());
  for (int c = 0; c < 3; ++c) {
    ASSERT_TRUE(node_->client(c).signal("dump", 7).is_ok());
  }
  for (int c = 0; c < 3; ++c) (void)node_->client(c).finalize();
  ASSERT_TRUE(node_->stop().is_ok());
  EXPECT_EQ(calls.load(), 1);  // scope="global": once, not three times
}

TEST_F(NodeFixture, AllocCommitZeroCopy) {
  ASSERT_TRUE(node_->start().is_ok());
  Client cl = node_->client(1);
  auto span = cl.alloc("temperature", 3);
  ASSERT_TRUE(span.is_ok()) << span.status().to_string();
  EXPECT_EQ(span.value().size(), 16u * 16 * 4 * 4);
  std::memset(span.value().data(), 0x42, span.value().size());
  ASSERT_TRUE(cl.commit("temperature", 3).is_ok());
  // Commit without alloc fails.
  EXPECT_EQ(cl.commit("temperature", 4).code(),
            ErrorCode::kFailedPrecondition);
  for (int c = 0; c < 3; ++c) {
    (void)node_->client(c).end_iteration(3);
    (void)node_->client(c).finalize();
  }
  ASSERT_TRUE(node_->stop().is_ok());
  auto stats = node_->stats();
  ASSERT_EQ(stats.iterations.size(), 1u);
  EXPECT_EQ(stats.iterations[0].blocks, 1u);
}

TEST_F(NodeFixture, SecondAllocOfAPendingBlockFails) {
  // Overwriting the pending entry would orphan the first block: never
  // committed, never freed.
  ASSERT_TRUE(node_->start().is_ok());
  Client cl = node_->client(0);
  ASSERT_TRUE(cl.alloc("temperature", 0).is_ok());
  EXPECT_EQ(cl.alloc("temperature", 0).status().code(),
            ErrorCode::kFailedPrecondition);
  ASSERT_TRUE(cl.commit("temperature", 0).is_ok());
  for (int c = 0; c < 3; ++c) {
    ASSERT_TRUE(node_->client(c).end_iteration(0).is_ok());
    ASSERT_TRUE(node_->client(c).finalize().is_ok());
  }
  ASSERT_TRUE(node_->stop().is_ok());
  EXPECT_EQ(node_->stats().iterations.at(0).blocks, 1u);
  EXPECT_EQ(node_->buffer().used(), 0u);
}

TEST_F(NodeFixture, WriteAndCommitAfterStopAreRejected) {
  // Once stop() closed the shard queues no dedicated core is left to
  // take a block: the write fails and its block is freed at once.
  ASSERT_TRUE(node_->start().is_ok());
  for (int c = 0; c < 3; ++c) ASSERT_TRUE(node_->client(c).finalize().is_ok());
  ASSERT_TRUE(node_->stop().is_ok());
  Client cl = node_->client(0);
  EXPECT_EQ(cl.write("temperature", 1, field(1.0f)).code(),
            ErrorCode::kResourceBusy);
  ASSERT_TRUE(cl.alloc("wind", 1).is_ok());
  EXPECT_EQ(cl.commit("wind", 1).code(), ErrorCode::kResourceBusy);
  EXPECT_EQ(cl.stats().writes, 0u);
  EXPECT_EQ(node_->buffer().used(), 0u);
}

TEST_F(NodeFixture, CallerBufferIsFreeAfterWrite) {
  // write() copies at once: clobbering its source afterwards must not
  // reach the file.
  ASSERT_TRUE(node_->start().is_ok());
  Client cl = node_->client(0);
  const auto data = field(1.0f);
  auto source = data;
  ASSERT_TRUE(cl.write("temperature", 0, source).is_ok());
  std::memset(source.data(), 0xff, source.size());
  for (int c = 0; c < 3; ++c) {
    ASSERT_TRUE(node_->client(c).end_iteration(0).is_ok());
    ASSERT_TRUE(node_->client(c).finalize().is_ok());
  }
  ASSERT_TRUE(node_->stop().is_ok());
  EXPECT_EQ(node_->buffer().used(), 0u);

  auto reader = format::Dh5Reader::open(dir_.string() + "/test_node0_it0.dh5");
  ASSERT_TRUE(reader.is_ok()) << reader.status().to_string();
  auto idx = reader.value().find("temperature", 0, 0);
  ASSERT_TRUE(idx.has_value());
  auto payload = reader.value().read(*idx);
  ASSERT_TRUE(payload.is_ok());
  EXPECT_EQ(payload.value(), data);
}

TEST_F(NodeFixture, LastRewriteWinsAndFreesTheReplacedBlock) {
  // Write A, clobber its source, write B to the same (variable,
  // iteration, source): B is persisted and A's block is freed.
  ASSERT_TRUE(node_->start().is_ok());
  Client cl = node_->client(0);
  const auto second = field(2.0f);
  auto source = field(1.0f);
  ASSERT_TRUE(cl.write("temperature", 0, source).is_ok());
  std::memset(source.data(), 0xff, source.size());
  ASSERT_TRUE(cl.write("temperature", 0, second).is_ok());
  for (int c = 0; c < 3; ++c) {
    ASSERT_TRUE(node_->client(c).end_iteration(0).is_ok());
    ASSERT_TRUE(node_->client(c).finalize().is_ok());
  }
  ASSERT_TRUE(node_->stop().is_ok());
  EXPECT_EQ(cl.stats().writes, 2u);
  EXPECT_EQ(node_->stats().iterations.at(0).blocks, 1u);
  EXPECT_EQ(node_->buffer().used(), 0u);

  auto reader = format::Dh5Reader::open(dir_.string() + "/test_node0_it0.dh5");
  ASSERT_TRUE(reader.is_ok()) << reader.status().to_string();
  EXPECT_EQ(reader.value().entries().size(), 1u);
  auto idx = reader.value().find("temperature", 0, 0);
  ASSERT_TRUE(idx.has_value());
  auto payload = reader.value().read(*idx);
  ASSERT_TRUE(payload.is_ok());
  EXPECT_EQ(payload.value(), second);
}

TEST_F(NodeFixture, ManyIterationsInOrder) {
  ASSERT_TRUE(node_->start().is_ok());
  auto data = field(5.0f);
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      Client cl = node_->client(c);
      for (int it = 0; it < 10; ++it) {
        ASSERT_TRUE(cl.write("temperature", it, data).is_ok());
        ASSERT_TRUE(cl.end_iteration(it).is_ok());
      }
      ASSERT_TRUE(cl.finalize().is_ok());
    });
  }
  for (auto& t : clients) t.join();
  ASSERT_TRUE(node_->stop().is_ok());
  auto stats = node_->stats();
  ASSERT_EQ(stats.iterations.size(), 10u);
  EXPECT_EQ(stats.persistency.files_written, 10u);
  EXPECT_EQ(node_->buffer().used(), 0u);
}

TEST_F(NodeFixture, UnflushedIterationPersistedOnStop) {
  ASSERT_TRUE(node_->start().is_ok());
  Client cl = node_->client(0);
  ASSERT_TRUE(cl.write("temperature", 0, field(1.0f)).is_ok());
  // No end_iteration: the drain on close must still persist it.
  for (int c = 0; c < 3; ++c) (void)node_->client(c).finalize();
  ASSERT_TRUE(node_->stop().is_ok());
  EXPECT_EQ(node_->stats().persistency.files_written, 1u);
}

TEST_F(NodeFixture, CompressionRatioReported) {
  ASSERT_TRUE(node_->start().is_ok());
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      Client cl = node_->client(c);
      ASSERT_TRUE(cl.write("wind", 0, field(2.0f)).is_ok());
      ASSERT_TRUE(cl.end_iteration(0).is_ok());
      ASSERT_TRUE(cl.finalize().is_ok());
    });
  }
  for (auto& t : clients) t.join();
  ASSERT_TRUE(node_->stop().is_ok());
  EXPECT_GT(node_->stats().persistency.compression_ratio(), 1.2);
}

TEST(Node, StartRequiresEveryEventActionToBeRegistered) {
  auto cfg = config::Config::from_string(R"(
<damaris>
  <buffer size="1048576" policy="firstfit"/>
  <event name="poke" action="custom" scope="local"/>
</damaris>)");
  ASSERT_TRUE(cfg.is_ok()) << cfg.status().to_string();
  DamarisNode node(std::move(cfg.value()), 1);
  const Status st = node.start();
  EXPECT_EQ(st.code(), ErrorCode::kNotFound);
  EXPECT_NE(st.message().find("'poke'"), std::string::npos) << st.message();
  EXPECT_NE(st.message().find("'custom'"), std::string::npos) << st.message();

  std::atomic<int> calls{0};
  node.plugins().register_action("custom",
                                 [&](EventContext&) { calls.fetch_add(1); });
  ASSERT_TRUE(node.start().is_ok());
  ASSERT_TRUE(node.client(0).signal("poke", 0).is_ok());
  ASSERT_TRUE(node.client(0).finalize().is_ok());
  ASSERT_TRUE(node.stop().is_ok());
  EXPECT_EQ(calls.load(), 1);
}

TEST(Node, FewerThanOneClientFailsStartCleanly) {
  // The partitioned allocator splits the buffer by the client count: a
  // node with no clients must still construct, then refuse to start.
  for (const char* policy : {"firstfit", "partitioned"}) {
    for (int clients : {0, -1}) {
      std::string xml = kConfigXml;
      xml.replace(xml.find("firstfit"), std::strlen("firstfit"), policy);
      auto cfg = config::Config::from_string(xml);
      ASSERT_TRUE(cfg.is_ok()) << cfg.status().to_string();
      DamarisNode node(std::move(cfg.value()), clients);
      const Status st = node.start();
      EXPECT_EQ(st.code(), ErrorCode::kInvalidArgument)
          << policy << ", " << clients << " clients: " << st.to_string();
      EXPECT_EQ(node.stop().code(), ErrorCode::kFailedPrecondition);
    }
  }
}

/// kConfigXml with a buffer size that parses (a positive 64-bit value)
/// but that no host can allocate.
std::string unallocatable_buffer_xml(const char* policy) {
  std::string xml = kConfigXml;
  xml.replace(xml.find("8388608"), std::strlen("8388608"),
              "18446744073709551615");
  xml.replace(xml.find("firstfit"), std::strlen("firstfit"), policy);
  return xml;
}

TEST(Node, UnallocatableBufferFailsStartCleanly) {
  // The node constructs with a buffer that has no memory, every
  // allocation from it fails, and start() refuses before any shard
  // thread exists.
  for (const char* policy : {"firstfit", "partitioned"}) {
    auto cfg = config::Config::from_string(unallocatable_buffer_xml(policy));
    ASSERT_TRUE(cfg.is_ok()) << cfg.status().to_string();
    DamarisNode node(std::move(cfg.value()), 3);
    EXPECT_EQ(node.buffer().capacity(), 0u) << policy;
    EXPECT_EQ(node.buffer().allocate(64, 0).status().code(),
              ErrorCode::kOutOfMemory)
        << policy;
    EXPECT_TRUE(node.buffer().check_integrity().is_ok()) << policy;
    const Status st = node.start();
    EXPECT_EQ(st.code(), ErrorCode::kOutOfMemory)
        << policy << ": " << st.to_string();
    EXPECT_EQ(node.stop().code(), ErrorCode::kFailedPrecondition);
  }
}

// Checkpoint/restart: every 4th of 12 steps each of 3 clients writes its
// three checkpoint variables in order, stopping at the first failure, so
// a checkpoint either lands in order or fails fast. A restart then reads
// every block back from the DH5 files.
TEST(Node, CheckpointBurstsReadBackByteExact) {
  constexpr int kClients = 3;
  constexpr int kSteps = 12;
  constexpr int kEvery = 4;
  constexpr const char* kVars[] = {"rho", "u", "e"};
  auto cfg = config::Config::from_string(R"(
<damaris>
  <buffer size="16777216" policy="firstfit"/>
  <layout name="grid" type="float32" dimensions="64,64"/>
  <variable name="rho" layout="grid"/>
  <variable name="u" layout="grid"/>
  <variable name="e" layout="grid"/>
</damaris>)");
  ASSERT_TRUE(cfg.is_ok()) << cfg.status().to_string();
  const auto dir = std::filesystem::temp_directory_path() /
                   ("damaris_ckpt_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  NodeOptions opts;
  opts.output_dir = dir.string();
  opts.file_prefix = "ckpt";
  DamarisNode node(std::move(cfg.value()), kClients, opts);
  ASSERT_TRUE(node.start().is_ok());

  const auto payload = [](int client, int step, int var) {
    std::vector<std::byte> data(64 * 64 * 4);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<std::byte>(
          (i + 31u * static_cast<unsigned>(client) +
           97u * static_cast<unsigned>(step) +
           131u * static_cast<unsigned>(var)) & 0xff);
    }
    return data;
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client = node.client(c);
      for (int step = 0; step < kSteps; ++step) {
        for (int v = 0; step % kEvery == 0 && v < 3; ++v) {
          const Status st = client.write(kVars[v], step, payload(c, step, v));
          EXPECT_TRUE(st.is_ok()) << st.to_string();
          if (!st.is_ok()) break;
        }
        EXPECT_TRUE(client.end_iteration(step).is_ok());
      }
      EXPECT_TRUE(client.finalize().is_ok());
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_TRUE(node.stop().is_ok());

  int verified = 0;
  for (int step = 0; step < kSteps; step += kEvery) {
    auto reader = format::Dh5Reader::open(dir.string() + "/ckpt_node0_it" +
                                          std::to_string(step) + ".dh5");
    ASSERT_TRUE(reader.is_ok()) << reader.status().to_string();
    for (int c = 0; c < kClients; ++c) {
      for (int v = 0; v < 3; ++v) {
        const auto idx = reader.value().find(kVars[v], step, c);
        ASSERT_TRUE(idx.has_value()) << kVars[v] << " " << step << " " << c;
        auto data = reader.value().read(*idx);
        ASSERT_TRUE(data.is_ok()) << data.status().to_string();
        EXPECT_EQ(data.value(), payload(c, step, v));
        ++verified;
      }
    }
  }
  EXPECT_EQ(verified, kClients * 3 * (kSteps / kEvery));
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------------------ capi

TEST(CApi, FullLifecycle) {
  namespace capi = ::dmr::core::capi;
  const auto dir = std::filesystem::temp_directory_path() /
                   ("damaris_capi_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const auto cfg_path = dir / "config.xml";
  {
    std::ofstream out(cfg_path);
    out << kConfigXml;
  }
  ASSERT_EQ(capi::df_setup(cfg_path.c_str(), 1, dir.c_str()), 0)
      << capi::df_last_error();
  ASSERT_EQ(capi::df_initialize(0), 0);

  std::vector<float> data(16 * 16 * 4, 1.5f);
  EXPECT_EQ(capi::df_write("temperature", 0, data.data()), 0)
      << capi::df_last_error();
  EXPECT_NE(capi::df_write("ghost", 0, data.data()), 0);
  EXPECT_EQ(capi::df_signal("analyze", 0), 0);

  void* p = capi::dc_alloc("wind", 0);
  ASSERT_NE(p, nullptr) << capi::df_last_error();
  std::memset(p, 0, 16 * 16 * 4 * 4);
  EXPECT_EQ(capi::dc_commit("wind", 0), 0);

  EXPECT_EQ(capi::df_end_iteration(0), 0);
  EXPECT_EQ(capi::df_finalize(), 0);
  EXPECT_EQ(capi::df_teardown(), 0);
  std::filesystem::remove_all(dir);
}

TEST(CApi, UnallocatableBufferFailsSetupCleanly) {
  namespace capi = ::dmr::core::capi;
  const auto dir = std::filesystem::temp_directory_path() /
                   ("damaris_capi_oom_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const auto bad_path = dir / "unallocatable.xml";
  const auto good_path = dir / "config.xml";
  {
    std::ofstream(bad_path) << unallocatable_buffer_xml("firstfit");
    std::ofstream(good_path) << kConfigXml;
  }
  EXPECT_EQ(capi::df_setup(bad_path.c_str(), 1, dir.c_str()), -1);
  EXPECT_NE(std::string(capi::df_last_error()).find("shared buffer"),
            std::string::npos)
      << capi::df_last_error();
  // The failed setup kept no node: there is nothing to tear down, and a
  // second setup succeeds.
  EXPECT_EQ(capi::df_teardown(), -2);
  ASSERT_EQ(capi::df_setup(good_path.c_str(), 1, dir.c_str()), 0)
      << capi::df_last_error();
  EXPECT_EQ(capi::df_teardown(), 0);
  std::filesystem::remove_all(dir);
}

TEST(CApi, ErrorsWithoutSetup) {
  namespace capi = ::dmr::core::capi;
  EXPECT_NE(capi::df_write("x", 0, nullptr), 0);
  EXPECT_NE(capi::df_finalize(), 0);
  EXPECT_NE(capi::df_teardown(), 0);
  EXPECT_EQ(capi::dc_alloc("x", 0), nullptr);
}

TEST(CApi, RejectsBadArguments) {
  // Bad arguments fail with -3 and a message; none may take the process
  // down (null strings, a null payload, a client count the partitioned
  // allocator cannot split the buffer by).
  namespace capi = ::dmr::core::capi;
  const auto dir = std::filesystem::temp_directory_path() /
                   ("damaris_capi_args_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const auto cfg_path = dir / "config.xml";
  {
    std::string xml = kConfigXml;
    xml.replace(xml.find("firstfit"), std::strlen("firstfit"), "partitioned");
    std::ofstream out(cfg_path);
    out << xml;
  }
  const auto rejected = [](int rc) {
    EXPECT_EQ(rc, -3);
    EXPECT_STRNE(capi::df_last_error(), "");
  };
  rejected(capi::df_setup(nullptr, 1, dir.c_str()));
  rejected(capi::df_setup(cfg_path.c_str(), 0, dir.c_str()));
  rejected(capi::df_setup(cfg_path.c_str(), -1, dir.c_str()));

  ASSERT_EQ(capi::df_setup(cfg_path.c_str(), 1, dir.c_str()), 0)
      << capi::df_last_error();
  ASSERT_EQ(capi::df_initialize(0), 0);
  std::vector<float> data(16 * 16 * 4, 0.5f);
  rejected(capi::df_write("temperature", 0, nullptr));
  rejected(capi::df_write(nullptr, 0, data.data()));
  rejected(capi::df_signal(nullptr, 0));
  EXPECT_EQ(capi::dc_alloc(nullptr, 0), nullptr);
  EXPECT_STRNE(capi::df_last_error(), "");
  rejected(capi::dc_commit(nullptr, 0));
  // The node still works after the rejections.
  EXPECT_EQ(capi::df_write("temperature", 0, data.data()), 0)
      << capi::df_last_error();
  EXPECT_EQ(capi::df_end_iteration(0), 0);
  EXPECT_EQ(capi::df_finalize(), 0);
  EXPECT_EQ(capi::df_teardown(), 0);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace dmr::core
