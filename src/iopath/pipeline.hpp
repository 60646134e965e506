// WritePipeline — an ordered stage composition plus its instrumentation.
//
// process() drives one WriteRequest through every stage in order,
// measuring each stage's simulated duration and byte flow, then runs
// the stages' complete() epilogues in reverse order (so a Schedule
// stage's token outlives the Storage stage it gates). It also checks
// the composition's invariants on every request (stage kinds never go
// backwards; only a Transform changes the payload, and never grows it)
// and reports the first broken one as the request's status. Each stage
// execution is recorded as a span on the requester's lane when tracing
// is on (src/trace/).
//
// Thread-safety: a pipeline is single-owner — process() is driven by
// one DES process (or one server thread) at a time; configure stages
// and trace entity before the first request. Distinct pipelines are
// independent and may run on different threads.
#pragma once

#include <memory>
#include <vector>

#include "des/engine.hpp"
#include "iopath/metrics.hpp"
#include "iopath/stage.hpp"
#include "trace/event.hpp"

namespace dmr::iopath {

class WritePipeline {
 public:
  explicit WritePipeline(des::Engine& eng) : eng_(&eng) {}

  WritePipeline(const WritePipeline&) = delete;
  WritePipeline& operator=(const WritePipeline&) = delete;

  /// Appends a stage; returns *this for chaining.
  WritePipeline& add(std::unique_ptr<Stage> stage);

  /// Lane type for trace spans (Category::kPipeline): requests record
  /// one span per stage on lane (`type`, req.source). Client pipelines
  /// keep the default kRank; writer pipelines set kWriter so rank and
  /// dedicated-core timelines land in separate trace processes.
  void set_trace_entity(trace::EntityType type) { trace_entity_type_ = type; }

  /// Runs `req` through all stages. Sets req.bytes = req.raw_bytes on
  /// entry; stages may shrink it. Safe to run many requests
  /// concurrently (stages share no per-request state). Every stage
  /// runs even after an invariant broke; the first broken one then
  /// overrides whatever status the stages recorded (kInternal, e.g.
  /// "out-of-order-stage: request[source=4 phase=2] stage=transform
  /// (transform after storage)").
  des::Task<void> process(WriteRequest& req);

  /// Counters pooled over every request processed so far.
  const PipelineStats& stats() const { return stats_; }

 private:
  des::Engine* eng_;
  std::vector<std::unique_ptr<Stage>> stages_;
  PipelineStats stats_;
  trace::EntityType trace_entity_type_ = trace::EntityType::kRank;
};

}  // namespace dmr::iopath
