#include "iopath/pipeline.hpp"

#include <memory>
#include <string>

#include "trace/tracer.hpp"

namespace dmr::iopath {
namespace {

/// The invariant a stage of kind `kind` broke when it turned a
/// `bytes_in` payload into req.bytes after a stage of kind `prev`, or
/// null when it broke none.
std::unique_ptr<Status> check_stage(const WriteRequest& req, StageKind prev,
                                    StageKind kind, Bytes bytes_in) {
  std::string broken;
  std::string detail;
  if (req.bytes != bytes_in &&
      (kind != StageKind::kTransform || req.bytes > bytes_in)) {
    broken = kind == StageKind::kTransform ? "growing-transform"
                                           : "resize-outside-transform";
    detail = std::to_string(bytes_in) + " -> " + std::to_string(req.bytes) +
             " bytes";
  } else if (kind < prev) {
    broken = "out-of-order-stage";
    detail = std::string(stage_name(kind)) + " after " + stage_name(prev);
  } else {
    return nullptr;
  }
  return std::make_unique<Status>(internal_error(
      broken + ": request[source=" + std::to_string(req.source) +
      " phase=" + std::to_string(req.phase) + "] stage=" + stage_name(kind) +
      " (" + detail + ")"));
}

}  // namespace

WritePipeline& WritePipeline::add(std::unique_ptr<Stage> stage) {
  stages_.push_back(std::move(stage));
  return *this;
}

des::Task<void> WritePipeline::process(WriteRequest& req) {
  req.bytes = req.raw_bytes;
  // The first broken invariant. It lands in req.status after the stage
  // loop, so a stage that records its own outcome (Storage) cannot
  // overwrite it. It is held by pointer and the loop derives the
  // previous kind from the composition: GCC keeps every local of a
  // coroutine in its heap frame, and each in-flight request holds one.
  std::unique_ptr<Status> violation;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    Stage& stage = *stages_[i];
    const Bytes bytes_in = req.bytes;
    const SimTime t0 = eng_->now();
    co_await stage.run(req);
    const SimTime dt = eng_->now() - t0;
    const StageKind kind = stage.kind();
    req.stage_seconds[stage_index(kind)] += dt;
    stats_.of(kind).add(dt, bytes_in, req.bytes);
    const StageKind prev = i == 0 ? kind : stages_[i - 1]->kind();
    if ((kind < prev || req.bytes != bytes_in) && violation == nullptr) {
      violation = check_stage(req, prev, kind, bytes_in);
    }
    if (trace::Tracer* tr = trace::current();
        tr != nullptr && tr->enabled(trace::Category::kPipeline)) {
      tr->record_span(
          {trace_entity_type_, static_cast<std::uint32_t>(req.source)},
          trace::Category::kPipeline, stage_name(kind), t0, dt, bytes_in,
          req.phase);
    }
  }
  if (violation != nullptr) req.status = std::move(*violation);
  for (auto it = stages_.rbegin(); it != stages_.rend(); ++it) {
    (*it)->complete(req);
  }
}

}  // namespace dmr::iopath
