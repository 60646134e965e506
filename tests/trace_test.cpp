// Tests for the tracing layer (src/trace/): ring-buffer wrap and
// concurrency, tracer gating and drain order, the Chrome trace_event
// exporter (golden file), JitterReport math pinned against
// common/stats.hpp, and the tracing-is-pure-observation contract on a
// full strategy run.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.hpp"
#include "experiments/experiments.hpp"
#include "strategies/strategy.hpp"
#include "trace/chrome_export.hpp"
#include "trace/event.hpp"
#include "trace/jitter_report.hpp"
#include "trace/ring.hpp"
#include "trace/tracer.hpp"

namespace dmr::trace {
namespace {

TraceEvent span(const char* name, double t, double dur, EntityId entity,
                std::uint64_t bytes = 0, std::int32_t phase = -1) {
  TraceEvent ev;
  ev.name = name;
  ev.t = t;
  ev.dur = dur;
  ev.bytes = bytes;
  ev.entity = entity;
  ev.phase = phase;
  ev.cat = Category::kDes;
  ev.kind = EventKind::kSpan;
  return ev;
}

// ------------------------------------------------------------- TraceRing

TEST(TraceRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(TraceRing(0).capacity(), 2u);
  EXPECT_EQ(TraceRing(1).capacity(), 2u);
  EXPECT_EQ(TraceRing(5).capacity(), 8u);
  EXPECT_EQ(TraceRing(8).capacity(), 8u);
}

TEST(TraceRing, WrapKeepsNewestAndCountsOverwrites) {
  TraceRing ring(8);
  for (int i = 0; i < 20; ++i) {
    ring.record(span("ev", static_cast<double>(i), 1.0,
                     {EntityType::kRank, 0}, static_cast<std::uint64_t>(i)));
  }
  EXPECT_EQ(ring.recorded(), 20u);
  EXPECT_EQ(ring.overwritten(), 12u);

  const std::vector<TraceEvent> got = ring.drain();
  ASSERT_EQ(got.size(), 8u);
  // Oldest-first snapshot of the 8 newest events: bytes 12..19.
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].bytes, 12 + i);
    EXPECT_DOUBLE_EQ(got[i].t, static_cast<double>(12 + i));
  }
}

TEST(TraceRing, NoWrapDeliversEveryEventExactlyOnce) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 256;
  TraceRing ring(kThreads * kPerThread);  // large enough: no wrapping

  std::vector<std::thread> threads;
  for (int th = 0; th < kThreads; ++th) {
    threads.emplace_back([&ring, th] {
      for (int i = 0; i < kPerThread; ++i) {
        ring.record(span("ev", 0.0, 1.0,
                         {EntityType::kRank, static_cast<std::uint32_t>(th)},
                         static_cast<std::uint64_t>(th * kPerThread + i)));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(ring.recorded(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(ring.overwritten(), 0u);
  const std::vector<TraceEvent> got = ring.drain();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kThreads * kPerThread));
  // Every payload 0..N-1 shows up exactly once.
  std::vector<int> seen(kThreads * kPerThread, 0);
  for (const TraceEvent& ev : got) seen[ev.bytes]++;
  for (int count : seen) EXPECT_EQ(count, 1);
}

TEST(TraceRing, ConcurrentWritersWithWrapStayConsistent) {
  // Heavy wrapping from many threads: the seqlock must keep drained
  // slots internally consistent (t encodes the same payload as bytes).
  // Run under TSan via scripts/check.sh.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  TraceRing ring(64);

  std::vector<std::thread> threads;
  for (int th = 0; th < kThreads; ++th) {
    threads.emplace_back([&ring, th] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::uint64_t payload =
            static_cast<std::uint64_t>(th * kPerThread + i);
        ring.record(span("ev", static_cast<double>(payload), 1.0,
                         {EntityType::kRank, static_cast<std::uint32_t>(th)},
                         payload));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(ring.recorded(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(ring.overwritten(),
            static_cast<std::uint64_t>(kThreads * kPerThread) -
                ring.capacity());
  const std::vector<TraceEvent> got = ring.drain();
  EXPECT_LE(got.size(), ring.capacity());
  for (const TraceEvent& ev : got) {
    EXPECT_DOUBLE_EQ(ev.t, static_cast<double>(ev.bytes))
        << "torn slot: fields from different events";
  }
}

// ---------------------------------------------------------------- Tracer

TEST(Tracer, CategoryGatingAtRecordAndRuntimeToggle) {
  TracerOptions opts;
  opts.categories = category_bit(Category::kDes);
  Tracer tracer(opts);
  EXPECT_TRUE(tracer.enabled(Category::kDes));
  EXPECT_FALSE(tracer.enabled(Category::kShm));

  tracer.record_span({EntityType::kRank, 0}, Category::kDes, "kept", 1.0, 1.0);
  tracer.record_span({EntityType::kRank, 0}, Category::kShm, "dropped", 2.0,
                     1.0);
  EXPECT_EQ(tracer.recorded(), 1u);

  tracer.set_enabled(Category::kShm, true);
  tracer.record_span({EntityType::kRank, 0}, Category::kShm, "kept2", 3.0,
                     1.0);
  tracer.set_enabled(Category::kDes, false);
  tracer.record_span({EntityType::kRank, 0}, Category::kDes, "dropped2", 4.0,
                     1.0);

  const std::vector<TraceEvent> got = tracer.drain();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_STREQ(got[0].name, "kept");
  EXPECT_STREQ(got[1].name, "kept2");
}

TEST(Tracer, DrainMergesShardsSortedByTimeThenEntity) {
  Tracer tracer;
  // Record out of order across different entities (hence shards).
  tracer.record_span({EntityType::kFsServer, 3}, Category::kDes, "c", 5.0, 1);
  tracer.record_span({EntityType::kRank, 7}, Category::kDes, "a", 1.0, 1.0);
  tracer.record_span({EntityType::kWriter, 2}, Category::kDes, "b", 5.0, 1.0);
  tracer.record_span({EntityType::kRank, 0}, Category::kDes, "d", 0.5, 1.0);

  const std::vector<TraceEvent> got = tracer.drain();
  ASSERT_EQ(got.size(), 4u);
  EXPECT_STREQ(got[0].name, "d");  // t = 0.5
  EXPECT_STREQ(got[1].name, "a");  // t = 1.0
  EXPECT_STREQ(got[2].name, "b");  // t = 5.0; kWriter entity key sorts
  EXPECT_STREQ(got[3].name, "c");  // before kFsServer at equal t
}

TEST(Tracer, ScopedInstallRestoresPreviousAndNullIsNoOp) {
  ASSERT_EQ(current(), nullptr);
  Tracer outer;
  {
    ScopedTracer a(&outer);
    EXPECT_EQ(current(), &outer);
    {
      // A null tracer must leave the ambient one installed (un-traced
      // runs compose with an outer traced session).
      ScopedTracer b(nullptr);
      EXPECT_EQ(current(), &outer);
      Tracer inner;
      {
        ScopedTracer c(&inner);
        EXPECT_EQ(current(), &inner);
      }
      EXPECT_EQ(current(), &outer);
    }
  }
  EXPECT_EQ(current(), nullptr);
}

// ---------------------------------------------------------- Chrome export

TEST(ChromeExport, GoldenFile) {
  // Pins the exact serialization: lane metadata first (one process per
  // entity type, one thread per entity), then events; seconds become
  // microseconds with three decimals. Perfetto/chrome://tracing load
  // this format directly.
  std::vector<TraceEvent> events;
  events.push_back(
      span("write", 1.5, 0.25, {EntityType::kFsServer, 1}, 4096, 2));
  TraceEvent inst;
  inst.name = "push";
  inst.t = 0.000001;
  inst.bytes = 64;
  inst.entity = {EntityType::kShmQueue, 0};
  inst.cat = Category::kShm;
  inst.kind = EventKind::kInstant;
  events.push_back(inst);
  TraceEvent ctr;
  ctr.name = "used";
  ctr.t = 2.0;
  ctr.bytes = 123456;
  ctr.entity = {EntityType::kShmBuffer, 0};
  ctr.cat = Category::kShm;
  ctr.kind = EventKind::kCounter;
  events.push_back(ctr);

  const std::string expected =
      "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
      "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 3, \"tid\": 0, "
      "\"args\": {\"name\": \"fs servers\"}},\n"
      "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 3, \"tid\": 1, "
      "\"args\": {\"name\": \"fs-server 1\"}},\n"
      "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 6, \"tid\": 0, "
      "\"args\": {\"name\": \"shm event queue\"}},\n"
      "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 6, \"tid\": 0, "
      "\"args\": {\"name\": \"queue 0\"}},\n"
      "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 7, \"tid\": 0, "
      "\"args\": {\"name\": \"shm buffer\"}},\n"
      "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 7, \"tid\": 0, "
      "\"args\": {\"name\": \"buffer 0\"}},\n"
      "  {\"name\": \"write\", \"cat\": \"des\", \"ph\": \"X\", "
      "\"dur\": 250000.000, \"ts\": 1500000.000, \"pid\": 3, \"tid\": 1, "
      "\"args\": {\"bytes\": 4096, \"phase\": 2}},\n"
      "  {\"name\": \"push\", \"cat\": \"shm\", \"ph\": \"i\", \"s\": \"t\", "
      "\"ts\": 1.000, \"pid\": 6, \"tid\": 0, \"args\": {\"bytes\": 64}},\n"
      "  {\"name\": \"used\", \"cat\": \"shm\", \"ph\": \"C\", "
      "\"ts\": 2000000.000, \"pid\": 7, \"tid\": 0, "
      "\"args\": {\"value\": 123456}}\n"
      "]}\n";
  EXPECT_EQ(chrome_trace_json(events), expected);
}

TEST(ChromeExport, EscapesQuotesAndBackslashes) {
  std::vector<TraceEvent> events;
  events.push_back(span("a\"b\\c", 0.0, 1.0, {EntityType::kRank, 0}));
  const std::string json = chrome_trace_json(events);
  EXPECT_NE(json.find("\"name\": \"a\\\"b\\\\c\""), std::string::npos);
}

TEST(ChromeExport, FailedWriteIsReported) {
  // /dev/full accepts the open and the buffered write; the flush in
  // fclose is what fails, and the caller must hear about it.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  Tracer tracer;
  EXPECT_FALSE(write_chrome_trace("/dev/full", tracer).is_ok());
}

// ------------------------------------------------------------ JitterReport

TEST(JitterReport, SummaryPinnedAgainstSampleStats) {
  Sample s;
  for (double v : {4.0, 8.0, 15.0, 16.0, 23.0, 42.0}) s.add(v);
  const JitterSummary sum = JitterSummary::of(s);
  EXPECT_EQ(sum.count, s.count());
  EXPECT_DOUBLE_EQ(sum.mean, s.mean());
  EXPECT_DOUBLE_EQ(sum.stddev, s.stddev());
  EXPECT_DOUBLE_EQ(sum.min, s.min());
  EXPECT_DOUBLE_EQ(sum.p50, s.percentile(50.0));
  EXPECT_DOUBLE_EQ(sum.p95, s.percentile(95.0));
  EXPECT_DOUBLE_EQ(sum.max, s.max());
  EXPECT_DOUBLE_EQ(sum.spread, s.max() - s.mean());
}

TEST(JitterReport, HistogramBinsAndClamps) {
  Sample s;
  for (double v : {0.0, 1.0, 2.0, 3.0, 3.999, -5.0, 10.0}) s.add(v);
  // 4 bins of width 1 over [0, 4); -5 clamps into bin 0, 10 into bin 3.
  const std::vector<std::uint64_t> h = histogram(s, 4, 0.0, 4.0);
  ASSERT_EQ(h.size(), 4u);
  EXPECT_EQ(h[0], 2u);  // 0.0 and clamped -5.0
  EXPECT_EQ(h[1], 1u);  // 1.0
  EXPECT_EQ(h[2], 1u);  // 2.0
  EXPECT_EQ(h[3], 3u);  // 3.0, 3.999 and clamped 10.0
}

TEST(JitterReport, JsonIsDeterministicAndStructured) {
  auto build = [] {
    JitterReport rep;
    Sample s;
    for (double v : {1.0, 2.0, 3.0}) s.add(v);
    rep.add("9216 cores", "damaris phase", s, 4);
    return rep.to_json();
  };
  const std::string a = build();
  EXPECT_EQ(a, build());
  EXPECT_NE(a.find("\"group\": \"9216 cores\""), std::string::npos);
  EXPECT_NE(a.find("\"label\": \"damaris phase\""), std::string::npos);
  EXPECT_NE(a.find("\"p95\""), std::string::npos);
  EXPECT_NE(a.find("\"hist\""), std::string::npos);
}

// --------------------------------------------- tracing = pure observation

TEST(TraceObservation, TracedRunIsBitIdenticalToUntraced) {
  using strategies::RunResult;
  using strategies::StrategyKind;
  auto cfg = experiments::kraken_config(StrategyKind::kDamaris, /*cores=*/48,
                                        /*iterations=*/3,
                                        /*write_interval=*/1);
  const RunResult plain = run_strategy(cfg);

  Tracer tracer;
  cfg.tracer = &tracer;
  const RunResult traced = run_strategy(cfg);
  EXPECT_GT(tracer.recorded(), 0u);

  EXPECT_EQ(plain.total_runtime, traced.total_runtime);
  EXPECT_EQ(plain.aggregate_throughput, traced.aggregate_throughput);
  EXPECT_EQ(plain.bytes_per_phase, traced.bytes_per_phase);
  EXPECT_EQ(plain.phase_seconds.mean(), traced.phase_seconds.mean());
  EXPECT_EQ(plain.phase_seconds.max(), traced.phase_seconds.max());
  EXPECT_EQ(plain.rank_write_seconds.mean(), traced.rank_write_seconds.mean());
  EXPECT_EQ(plain.dedicated_write_seconds.mean(),
            traced.dedicated_write_seconds.mean());
}

TEST(TraceObservation, StrategyRunExportsWellFormedLanes) {
  using strategies::StrategyKind;
  Tracer tracer;
  auto cfg = experiments::kraken_config(StrategyKind::kDamaris, /*cores=*/48,
                                        /*iterations=*/2,
                                        /*write_interval=*/1);
  cfg.tracer = &tracer;
  run_strategy(cfg);

  const std::vector<TraceEvent> events = tracer.drain();
  ASSERT_FALSE(events.empty());
  bool saw_des = false, saw_pipeline = false;
  for (const TraceEvent& ev : events) {
    saw_des = saw_des || ev.cat == Category::kDes;
    saw_pipeline = saw_pipeline || ev.cat == Category::kPipeline;
    ASSERT_NE(ev.name, nullptr);
  }
  EXPECT_TRUE(saw_des);       // fs-server service spans
  EXPECT_TRUE(saw_pipeline);  // write-pipeline stage spans

  const std::string json = chrome_trace_json(events);
  EXPECT_EQ(json.substr(0, 1), "{");
  EXPECT_EQ(json.substr(json.size() - 4), std::string("\n]}\n"));
  // Balanced braces — cheap structural sanity without a JSON parser
  // (string values never contain unescaped braces).
  int depth = 0;
  for (char c : json) {
    if (c == '{') depth++;
    if (c == '}') depth--;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

}  // namespace
}  // namespace dmr::trace
