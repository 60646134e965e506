#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "check/pipeline_checker.hpp"
#include "common/units.hpp"
#include "des/engine.hpp"
#include "des/process.hpp"
#include "des/sync.hpp"
#include "format/codec.hpp"
#include "iopath/compression_model.hpp"
#include "iopath/metrics.hpp"
#include "iopath/pipeline.hpp"
#include "iopath/stages.hpp"

namespace dmr::iopath {
namespace {

// ---------------------------------------------------- CompressionModel

TEST(CompressionModel, NoneIsPassThrough) {
  const CompressionModel m = CompressionModel::none();
  EXPECT_FALSE(m.active());
  EXPECT_STREQ(m.name(), "none");
  EXPECT_DOUBLE_EQ(m.cpu_seconds(123 * MiB), 0.0);
  EXPECT_EQ(m.stored_bytes(123 * MiB), 123 * MiB);
  EXPECT_TRUE(m.codec_pipeline().empty());
}

TEST(CompressionModel, LosslessUsesPaperGzipConstants) {
  const CompressionModel m = CompressionModel::lossless();
  EXPECT_TRUE(m.active());
  EXPECT_STREQ(m.name(), "lossless");
  EXPECT_DOUBLE_EQ(m.ratio(), kGzipRatio);
  EXPECT_DOUBLE_EQ(m.rate(), kGzipRate);
  // 45 MiB at 45 MiB/s is one CPU-second (§IV-D).
  EXPECT_DOUBLE_EQ(m.cpu_seconds(Bytes(45 * MiB)), 1.0);
  EXPECT_EQ(m.stored_bytes(187), Bytes(100));
  EXPECT_EQ(m.codec_pipeline().stages(),
            format::Pipeline::lossless().stages());
}

TEST(CompressionModel, VisualizationUsesPaperPrecision16Constants) {
  const CompressionModel m = CompressionModel::visualization();
  EXPECT_STREQ(m.name(), "visualization");
  EXPECT_DOUBLE_EQ(m.ratio(), kPrecision16Ratio);
  EXPECT_DOUBLE_EQ(m.rate(), kPrecision16Rate);
  EXPECT_DOUBLE_EQ(m.cpu_seconds(Bytes(70 * MiB)), 1.0);
  EXPECT_EQ(m.stored_bytes(600), Bytes(100));
  EXPECT_EQ(m.codec_pipeline().stages(),
            format::Pipeline::visualization().stages());
}

TEST(CompressionModel, PipelineNameResolution) {
  EXPECT_EQ(CompressionModel::for_pipeline_name("lossless").kind(),
            CompressionModel::Kind::kLossless);
  EXPECT_EQ(CompressionModel::for_pipeline_name("visualization").kind(),
            CompressionModel::Kind::kVisualization);
  EXPECT_EQ(CompressionModel::for_pipeline_name("").kind(),
            CompressionModel::Kind::kNone);
  EXPECT_EQ(CompressionModel::for_pipeline_name("no-such-codec").kind(),
            CompressionModel::Kind::kNone);
}

TEST(CompressionModel, CustomRatesOverrideDefaults) {
  const CompressionModel m = CompressionModel::lossless(2.0, 100.0);
  EXPECT_DOUBLE_EQ(m.cpu_seconds(250), 2.5);
  EXPECT_EQ(m.stored_bytes(250), Bytes(125));
}

// ----------------------------------------------------------- counters

TEST(StageCounters, AddAccumulatesAndTracksMax) {
  StageCounters c;
  c.add(1.0, 100, 50);
  c.add(3.0, 200, 100);
  c.add(2.0, 300, 150);
  EXPECT_EQ(c.ops, 3u);
  EXPECT_DOUBLE_EQ(c.seconds, 6.0);
  EXPECT_DOUBLE_EQ(c.max_seconds, 3.0);
  EXPECT_EQ(c.bytes_in, Bytes(600));
  EXPECT_EQ(c.bytes_out, Bytes(300));
  EXPECT_DOUBLE_EQ(c.mean_seconds(), 2.0);
  EXPECT_DOUBLE_EQ(c.bytes_per_second(), 100.0);
}

TEST(StageCounters, EmptyCountersAreWellDefined) {
  const StageCounters c;
  EXPECT_DOUBLE_EQ(c.mean_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(c.bytes_per_second(), 0.0);
}

TEST(PipelineStats, MergePoolsEveryStage) {
  PipelineStats a, b;
  a.of(StageKind::kIngest).add(1.0, 10, 10);
  a.of(StageKind::kStorage).add(2.0, 10, 10);
  b.of(StageKind::kIngest).add(4.0, 30, 30);
  a.merge(b);
  EXPECT_EQ(a.of(StageKind::kIngest).ops, 2u);
  EXPECT_DOUBLE_EQ(a.of(StageKind::kIngest).seconds, 5.0);
  EXPECT_DOUBLE_EQ(a.of(StageKind::kIngest).max_seconds, 4.0);
  EXPECT_EQ(a.of(StageKind::kIngest).bytes_in, Bytes(40));
  EXPECT_DOUBLE_EQ(a.total_seconds(), 7.0);
}

TEST(PipelineStats, ToStringNamesActiveStagesOnly) {
  PipelineStats s;
  EXPECT_EQ(s.to_string(), "no stages ran");
  s.of(StageKind::kTransform).add(1.5, 2 * MiB, 1 * MiB);
  const std::string out = s.to_string();
  EXPECT_NE(out.find("transform"), std::string::npos);
  EXPECT_EQ(out.find("ingest"), std::string::npos);
}

TEST(StageNames, CoverEveryKind) {
  EXPECT_STREQ(stage_name(StageKind::kIngest), "ingest");
  EXPECT_STREQ(stage_name(StageKind::kTransform), "transform");
  EXPECT_STREQ(stage_name(StageKind::kSchedule), "schedule");
  EXPECT_STREQ(stage_name(StageKind::kTransport), "transport");
  EXPECT_STREQ(stage_name(StageKind::kStorage), "storage");
}

// ------------------------------------------------------- WritePipeline

/// Minimal synthetic stage: a fixed simulated delay under any kind, an
/// optional payload rewrite, and a completion log for ordering checks.
class FakeStage : public Stage {
 public:
  FakeStage(des::Engine& eng, StageKind kind, SimTime delay,
            double shrink_factor = 1.0, std::vector<StageKind>* done = nullptr)
      : eng_(&eng),
        kind_(kind),
        delay_(delay),
        shrink_(shrink_factor),
        done_(done) {}

  StageKind kind() const override { return kind_; }

  des::Task<void> run(WriteRequest& req) override {
    if (delay_ > 0) co_await eng_->delay(delay_);
    if (shrink_ != 1.0) {
      req.bytes = static_cast<Bytes>(static_cast<double>(req.bytes) / shrink_);
    }
  }

  void complete(WriteRequest&) override {
    if (done_ != nullptr) done_->push_back(kind_);
  }

 private:
  des::Engine* eng_;
  StageKind kind_;
  SimTime delay_;
  double shrink_;
  std::vector<StageKind>* done_;
};

void drive(des::Engine& eng, WritePipeline& pipe, WriteRequest& req) {
  eng.spawn([](des::Engine&, WritePipeline& p, WriteRequest& r) -> des::Process {
    co_await p.process(r);
  }(eng, pipe, req));
  eng.run();
}

TEST(WritePipeline, MeasuresPerStageTimeAndBytes) {
  des::Engine eng;
  WritePipeline pipe(eng);
  pipe.add(std::make_unique<FakeStage>(eng, StageKind::kTransform, 2.0, 2.0))
      .add(std::make_unique<FakeStage>(eng, StageKind::kStorage, 3.0));

  WriteRequest req;
  req.source = 7;
  req.raw_bytes = 100;
  drive(eng, pipe, req);

  EXPECT_EQ(req.bytes, Bytes(50));
  EXPECT_DOUBLE_EQ(req.seconds(StageKind::kTransform), 2.0);
  EXPECT_DOUBLE_EQ(req.seconds(StageKind::kStorage), 3.0);
  EXPECT_DOUBLE_EQ(eng.now(), 5.0);

  const PipelineStats& st = pipe.stats();
  EXPECT_EQ(st.of(StageKind::kTransform).ops, 1u);
  EXPECT_EQ(st.of(StageKind::kTransform).bytes_in, Bytes(100));
  EXPECT_EQ(st.of(StageKind::kTransform).bytes_out, Bytes(50));
  EXPECT_EQ(st.of(StageKind::kStorage).bytes_in, Bytes(50));
  EXPECT_DOUBLE_EQ(st.total_seconds(), 5.0);
}

TEST(WritePipeline, ResetsPayloadToRawOnEntry) {
  des::Engine eng;
  WritePipeline pipe(eng);
  pipe.add(std::make_unique<FakeStage>(eng, StageKind::kTransform, 0.0, 4.0));
  WriteRequest req;
  req.raw_bytes = 400;
  req.bytes = 1;  // stale value from a previous traversal
  drive(eng, pipe, req);
  EXPECT_EQ(req.bytes, Bytes(100));
}

TEST(WritePipeline, CompletionRunsInReverseOrder) {
  des::Engine eng;
  std::vector<StageKind> done;
  WritePipeline pipe(eng);
  pipe.add(std::make_unique<FakeStage>(eng, StageKind::kSchedule, 0.0, 1.0,
                                       &done))
      .add(std::make_unique<FakeStage>(eng, StageKind::kStorage, 1.0, 1.0,
                                       &done));
  WriteRequest req;
  req.raw_bytes = 10;
  drive(eng, pipe, req);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], StageKind::kStorage);
  EXPECT_EQ(done[1], StageKind::kSchedule);
}

TEST(WritePipeline, PoolsStatsAcrossRequests) {
  des::Engine eng;
  WritePipeline pipe(eng);
  pipe.add(std::make_unique<FakeStage>(eng, StageKind::kStorage, 1.0));
  for (int i = 0; i < 3; ++i) {
    WriteRequest req;
    req.source = i;
    req.raw_bytes = 10;
    drive(eng, pipe, req);
  }
  EXPECT_EQ(pipe.stats().of(StageKind::kStorage).ops, 3u);
  EXPECT_DOUBLE_EQ(pipe.stats().of(StageKind::kStorage).seconds, 3.0);
}

TEST(WritePipeline, TransformStageAppliesSharedCostModel) {
  des::Engine eng;
  WritePipeline pipe(eng);
  pipe.add(std::make_unique<TransformStage>(
      eng, CompressionModel::lossless(2.0, 50.0)));
  WriteRequest req;
  req.raw_bytes = 100;
  drive(eng, pipe, req);
  EXPECT_DOUBLE_EQ(eng.now(), 2.0);  // 100 B at 50 B/s
  EXPECT_EQ(req.bytes, Bytes(50));
  EXPECT_DOUBLE_EQ(req.seconds(StageKind::kTransform), 2.0);
}

TEST(WritePipeline, InactiveTransformIsFree) {
  des::Engine eng;
  WritePipeline pipe(eng);
  pipe.add(std::make_unique<TransformStage>(eng, CompressionModel::none()));
  WriteRequest req;
  req.raw_bytes = 100;
  drive(eng, pipe, req);
  EXPECT_DOUBLE_EQ(eng.now(), 0.0);
  EXPECT_EQ(req.bytes, Bytes(100));
}

TEST(WritePipeline, ScheduleStageHoldsTokenUntilDownstreamFinishes) {
  des::Engine eng;
  des::Semaphore tokens(eng, 1);
  WritePipeline pipe(eng);
  pipe.add(std::make_unique<ScheduleStage>(eng, /*interval=*/1.0,
                                           /*num_writers=*/1,
                                           Scheduling::kTokens, &tokens))
      .add(std::make_unique<FakeStage>(eng, StageKind::kStorage, 2.0));

  // Two concurrent requests through a 1-token set: storage serializes.
  WriteRequest a, b;
  a.source = 0;
  a.raw_bytes = 10;
  b.source = 1;
  b.raw_bytes = 10;
  eng.spawn([](WritePipeline& p, WriteRequest& r) -> des::Process {
    co_await p.process(r);
  }(pipe, a));
  eng.spawn([](WritePipeline& p, WriteRequest& r) -> des::Process {
    co_await p.process(r);
  }(pipe, b));
  eng.run();

  EXPECT_DOUBLE_EQ(eng.now(), 4.0);  // 2 s + 2 s, not max(2, 2)
  EXPECT_EQ(tokens.available(), 1);  // both tokens returned via complete()
  // The second request books its token wait as Schedule time.
  EXPECT_DOUBLE_EQ(a.seconds(StageKind::kSchedule) +
                       b.seconds(StageKind::kSchedule),
                   2.0);
}

TEST(WritePipeline, ScheduleStageSlotDelayFollowsSlotScheduler) {
  des::Engine eng;
  WritePipeline pipe(eng);
  // 4 writers over a 100 s interval: writer 3's slot opens at t = 75.
  pipe.add(std::make_unique<ScheduleStage>(eng, 100.0, 4,
                                           Scheduling::kSlots));
  WriteRequest req;
  req.source = 3;
  req.raw_bytes = 10;
  drive(eng, pipe, req);
  EXPECT_DOUBLE_EQ(eng.now(), 75.0);
  EXPECT_DOUBLE_EQ(req.seconds(StageKind::kSchedule), 75.0);
}

// ------------------------------------------------------------ observer

TEST(WritePipeline, ObserverSeesEveryStageBoundary) {
  des::Engine eng;

  struct Recorder : PipelineObserver {
    int begins = 0, ends = 0;
    std::vector<StageKind> stages;
    void on_request_begin(const WriteRequest&) override { ++begins; }
    void on_stage_end(StageKind kind, const WriteRequest&, SimTime, Bytes,
                      Bytes) override {
      stages.push_back(kind);
    }
    void on_request_end(const WriteRequest&) override { ++ends; }
  } rec;

  WritePipeline pipe(eng);
  pipe.add(std::make_unique<FakeStage>(eng, StageKind::kTransform, 1.0))
      .add(std::make_unique<FakeStage>(eng, StageKind::kStorage, 1.0));
  pipe.set_observer(&rec);
  WriteRequest req;
  req.raw_bytes = 10;
  drive(eng, pipe, req);

  EXPECT_EQ(rec.begins, 1);
  EXPECT_EQ(rec.ends, 1);
  ASSERT_EQ(rec.stages.size(), 2u);
  EXPECT_EQ(rec.stages[0], StageKind::kTransform);
  EXPECT_EQ(rec.stages[1], StageKind::kStorage);
}

TEST(StageOrderChecker, CleanCompositionReportsNoViolations) {
  des::Engine eng;
  check::StageOrderChecker chk;
  WritePipeline pipe(eng);
  pipe.add(std::make_unique<FakeStage>(eng, StageKind::kIngest, 1.0))
      .add(std::make_unique<FakeStage>(eng, StageKind::kTransform, 1.0, 2.0))
      .add(std::make_unique<FakeStage>(eng, StageKind::kStorage, 1.0));
  pipe.set_observer(&chk);
  WriteRequest req;
  req.raw_bytes = 100;
  drive(eng, pipe, req);

  EXPECT_EQ(chk.violation_count(), 0u);
  EXPECT_EQ(chk.requests_checked(), 1u);
  EXPECT_NE(chk.report().find("pipeline clean"), std::string::npos);
}

TEST(StageOrderChecker, FlagsOutOfOrderComposition) {
  des::Engine eng;
  check::StageOrderChecker chk;
  WritePipeline pipe(eng);
  // Compressing bytes that already hit storage is exactly the mistake
  // the canonical order forbids.
  pipe.add(std::make_unique<FakeStage>(eng, StageKind::kStorage, 1.0))
      .add(std::make_unique<FakeStage>(eng, StageKind::kTransform, 1.0, 2.0));
  pipe.set_observer(&chk);
  WriteRequest req;
  req.raw_bytes = 100;
  drive(eng, pipe, req);

  ASSERT_GE(chk.violation_count(), 1u);
  const auto v = chk.violations();
  EXPECT_EQ(v[0].kind, check::PipelineViolationKind::kOutOfOrderStage);
  EXPECT_NE(chk.report().find("out-of-order-stage"), std::string::npos);
}

TEST(StageOrderChecker, FlagsResizeOutsideTransform) {
  des::Engine eng;
  check::StageOrderChecker chk;
  WritePipeline pipe(eng);
  // An Ingest stage that silently shrinks the payload.
  pipe.add(std::make_unique<FakeStage>(eng, StageKind::kIngest, 1.0, 2.0));
  pipe.set_observer(&chk);
  WriteRequest req;
  req.raw_bytes = 100;
  drive(eng, pipe, req);

  ASSERT_EQ(chk.violation_count(), 1u);
  EXPECT_EQ(chk.violations()[0].kind,
            check::PipelineViolationKind::kResizeOutsideTransform);
}

TEST(StageOrderChecker, FlagsGrowingTransform) {
  des::Engine eng;
  check::StageOrderChecker chk;
  WritePipeline pipe(eng);
  pipe.add(std::make_unique<FakeStage>(eng, StageKind::kTransform, 1.0, 0.5));
  pipe.set_observer(&chk);
  WriteRequest req;
  req.raw_bytes = 100;
  drive(eng, pipe, req);

  ASSERT_EQ(chk.violation_count(), 1u);
  EXPECT_EQ(chk.violations()[0].kind,
            check::PipelineViolationKind::kGrowingTransform);
}

TEST(StageOrderChecker, IndependentRequestsDoNotInterfere) {
  des::Engine eng;
  check::StageOrderChecker chk;
  WritePipeline client(eng), writer(eng);
  client.add(std::make_unique<FakeStage>(eng, StageKind::kIngest, 1.0));
  writer.add(std::make_unique<FakeStage>(eng, StageKind::kStorage, 1.0));
  client.set_observer(&chk);
  writer.set_observer(&chk);

  // The same (source, phase) write first traverses the client pipeline,
  // then — as a *new* request — the writer pipeline, like the Damaris
  // strategy's handoff. The checker must treat them as two traversals.
  WriteRequest c, w;
  c.source = w.source = 4;
  c.phase = w.phase = 2;
  c.raw_bytes = w.raw_bytes = 10;
  drive(eng, client, c);
  drive(eng, writer, w);

  EXPECT_EQ(chk.violation_count(), 0u);
  EXPECT_EQ(chk.requests_checked(), 2u);
}

}  // namespace
}  // namespace dmr::iopath
