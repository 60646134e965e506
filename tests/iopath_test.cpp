#include <gtest/gtest.h>

#include <memory>
#include <vector>

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

TEST(StageCounters, AddAccumulatesEveryCounter) {
  StageCounters c;
  c.add(1.0, 100, 50);
  c.add(3.0, 200, 100);
  c.add(2.0, 300, 150);
  EXPECT_EQ(c.ops, 3u);
  EXPECT_DOUBLE_EQ(c.seconds, 6.0);
  EXPECT_EQ(c.bytes_in, Bytes(600));
  EXPECT_EQ(c.bytes_out, Bytes(300));
}

TEST(PipelineStats, MergePoolsEveryStage) {
  PipelineStats a, b;
  a.of(StageKind::kIngest).add(1.0, 10, 10);
  a.of(StageKind::kStorage).add(2.0, 10, 10);
  b.of(StageKind::kIngest).add(4.0, 30, 30);
  a.merge(b);
  EXPECT_EQ(a.of(StageKind::kIngest).ops, 2u);
  EXPECT_DOUBLE_EQ(a.of(StageKind::kIngest).seconds, 5.0);
  EXPECT_EQ(a.of(StageKind::kIngest).bytes_in, Bytes(40));
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

// --------------------------------------------------------- invariants

/// A Storage stage that, like StorageStage, records its own outcome.
class OkStorageStage : public Stage {
 public:
  StageKind kind() const override { return StageKind::kStorage; }
  des::Task<void> run(WriteRequest& req) override {
    req.status = Status::ok();
    co_return;
  }
};

TEST(WritePipeline, CleanCompositionIsOk) {
  des::Engine eng;
  WritePipeline pipe(eng);
  pipe.add(std::make_unique<FakeStage>(eng, StageKind::kIngest, 1.0))
      .add(std::make_unique<FakeStage>(eng, StageKind::kTransform, 1.0, 2.0))
      .add(std::make_unique<FakeStage>(eng, StageKind::kStorage, 1.0));
  WriteRequest req;
  req.raw_bytes = 100;
  drive(eng, pipe, req);

  EXPECT_TRUE(req.status.is_ok()) << req.status.to_string();
  EXPECT_EQ(req.bytes, Bytes(50));
}

TEST(WritePipeline, OutOfOrderCompositionFails) {
  des::Engine eng;
  WritePipeline pipe(eng);
  // Compressing bytes that already hit storage is exactly the mistake
  // the canonical order forbids.
  pipe.add(std::make_unique<FakeStage>(eng, StageKind::kStorage, 1.0))
      .add(std::make_unique<FakeStage>(eng, StageKind::kTransform, 1.0, 2.0));
  WriteRequest req;
  req.source = 4;
  req.phase = 2;
  req.raw_bytes = 100;
  drive(eng, pipe, req);

  EXPECT_EQ(req.status.code(), ErrorCode::kInternal);
  EXPECT_EQ(req.status.message(),
            "out-of-order-stage: request[source=4 phase=2] stage=transform "
            "(transform after storage)");
  EXPECT_DOUBLE_EQ(eng.now(), 2.0);  // every stage still ran
}

TEST(WritePipeline, ResizeOutsideTransformFails) {
  des::Engine eng;
  WritePipeline pipe(eng);
  // An Ingest stage that silently shrinks the payload.
  pipe.add(std::make_unique<FakeStage>(eng, StageKind::kIngest, 1.0, 2.0));
  WriteRequest req;
  req.raw_bytes = 100;
  drive(eng, pipe, req);

  EXPECT_EQ(req.status.code(), ErrorCode::kInternal);
  EXPECT_EQ(req.status.message(),
            "resize-outside-transform: request[source=0 phase=0] "
            "stage=ingest (100 -> 50 bytes)");
}

TEST(WritePipeline, GrowingTransformFails) {
  des::Engine eng;
  WritePipeline pipe(eng);
  pipe.add(std::make_unique<FakeStage>(eng, StageKind::kTransform, 1.0, 0.5));
  WriteRequest req;
  req.raw_bytes = 100;
  drive(eng, pipe, req);

  EXPECT_EQ(req.status.code(), ErrorCode::kInternal);
  EXPECT_EQ(req.status.message(),
            "growing-transform: request[source=0 phase=0] stage=transform "
            "(100 -> 200 bytes)");
}

TEST(WritePipeline, SameSourceAndPhaseOnTwoPipelinesRunClean) {
  des::Engine eng;
  WritePipeline client(eng), writer(eng);
  client.add(std::make_unique<FakeStage>(eng, StageKind::kIngest, 2.0));
  writer.add(std::make_unique<FakeStage>(eng, StageKind::kStorage, 1.0));

  // Rank 4's phase-2 handoff is still in its Ingest stage when writer 4
  // finishes storing its own phase-2 request, as in the Damaris
  // strategy: two concurrent requests with the same (source, phase)
  // key. Each traversal is checked on its own.
  WriteRequest c, w;
  c.source = w.source = 4;
  c.phase = w.phase = 2;
  c.raw_bytes = w.raw_bytes = 10;
  eng.spawn([](WritePipeline& p, WriteRequest& r) -> des::Process {
    co_await p.process(r);
  }(client, c));
  eng.spawn([](WritePipeline& p, WriteRequest& r) -> des::Process {
    co_await p.process(r);
  }(writer, w));
  eng.run();

  EXPECT_TRUE(c.status.is_ok()) << c.status.to_string();
  EXPECT_TRUE(w.status.is_ok()) << w.status.to_string();
}

TEST(WritePipeline, ViolationSurvivesALaterStorageStatus) {
  des::Engine eng;
  WritePipeline pipe(eng);
  pipe.add(std::make_unique<FakeStage>(eng, StageKind::kIngest, 1.0, 2.0))
      .add(std::make_unique<OkStorageStage>());
  WriteRequest req;
  req.raw_bytes = 100;
  drive(eng, pipe, req);

  EXPECT_EQ(req.status.code(), ErrorCode::kInternal);
  EXPECT_EQ(req.status.message().rfind("resize-outside-transform: ", 0), 0u)
      << req.status.to_string();
}

}  // namespace
}  // namespace dmr::iopath
