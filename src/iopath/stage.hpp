// The staged write-pipeline vocabulary (TASIO-style request pipeline).
//
// A write is a WriteRequest flowing through an ordered composition of
// typed Stages:
//
//   Ingest     the handoff that the application perceives as "the
//              write" — a memcpy into node-local shared memory (or the
//              slower FUSE detour of §V-B);
//   Transform  optional data reduction (gzip / 16-bit precision, §IV-D);
//   Schedule   when the writer may touch the file system — §IV-D local
//              slots and/or §VI coordination tokens;
//   Transport  bulk movement off the node (dedicated-*node* staging:
//              NIC, fabric, staging NIC);
//   Storage    the file-system protocol (create, striped writes, close —
//              or a fused two-phase collective write).
//
// A strategy is a *composition* of stages, not a special case: e.g.
// file-per-process = Transform→Storage on every compute core, Damaris =
// Ingest on the compute core plus Transform→Schedule→Storage on the
// dedicated core. Stage kinds are ordered; a request must traverse them
// monotonically (WritePipeline::process checks this on every request).
//
// Thread-safety: Stage implementations belong to their pipeline and
// are invoked by its single driving thread; shared resources a stage
// touches (FS servers, the scheduler) carry their own synchronization
// or live inside one DES engine.
#pragma once

#include "common/status.hpp"
#include "common/units.hpp"
#include "des/task.hpp"

namespace dmr::cluster {
class Node;
}

namespace dmr::des {
class ServiceQueue;
}

namespace dmr::iopath {

/// Canonical stage order (the pipeline invariant WritePipeline::process
/// checks): a request visits kinds in non-decreasing enum order.
enum class StageKind : int {
  kIngest = 0,
  kTransform = 1,
  kSchedule = 2,
  kTransport = 3,
  kStorage = 4,
};

inline constexpr int kNumStageKinds = 5;

inline constexpr int stage_index(StageKind k) { return static_cast<int>(k); }

const char* stage_name(StageKind k);

/// How a dedicated core schedules its writes: what the kSchedule stage
/// (ScheduleStage, iopath/stages.hpp) waits for.
enum class Scheduling {
  /// Write as soon as the data is ready.
  kNone,
  /// §IV-D local slots: wait for this writer's slot in the estimated
  /// iteration interval, with no communication.
  kSlots,
  /// Trace-fed adaptive slots (sched/adaptive.hpp): wait for the offset
  /// an AdaptiveSlotController last retuned for this writer.
  kAdaptive,
  /// §VI coordinated scheduling: the writers share a bounded set of
  /// write tokens, capping concurrent writers exactly.
  kTokens,
};

/// One write travelling through a pipeline. The request carries its own
/// context (origin node, issuing core) so stage instances can be shared
/// by every rank/writer of an experiment.
struct WriteRequest {
  /// Issuing rank (client pipelines) or writer id (writer pipelines).
  int source = 0;
  /// Global core index that issues storage operations.
  int core = 0;
  /// Write-phase index (0-based).
  int phase = 0;

  /// Payload size entering the pipeline.
  Bytes raw_bytes = 0;
  /// Current payload size; a Transform stage may shrink it.
  Bytes bytes = 0;

  /// Origin node (Ingest/Transport stages).
  cluster::Node* node = nullptr;
  /// Staging node a Transport stage ships to (dedicated-nodes mode).
  cluster::Node* staging = nullptr;

  /// Server-directed placement for the Storage stage (facility placement
  /// ladder): confine this request's file to the data-server slice
  /// [place_first_server, +place_server_span). Negative first server
  /// keeps default hash placement.
  int place_first_server = -1;
  int place_server_span = 0;
  /// Staging-tier burst buffer (facility ladder tier 2): when set, the
  /// Storage stage completes once this queue absorbed the payload and
  /// the real file-system writes drain in the background.
  des::ServiceQueue* staging_tier = nullptr;

  /// Per-stage-kind time spent by *this* request, filled by the
  /// pipeline runner.
  SimTime stage_seconds[kNumStageKinds] = {};

  /// Outcome of the request: stages that can fail (Storage under fault
  /// injection) record their final status here, and the pipeline
  /// records a broken composition invariant over it; untouched means OK.
  Status status = Status::ok();
  /// Storage retries this request consumed (bounded-retry policy).
  int retries = 0;

  SimTime seconds(StageKind k) const { return stage_seconds[stage_index(k)]; }
};

/// One composable pipeline stage. Stages are shared across requests and
/// must keep per-request state inside the WriteRequest.
class Stage {
 public:
  virtual ~Stage() = default;

  virtual StageKind kind() const = 0;

  /// Performs the stage's simulated work on `req` (may complete without
  /// suspending — e.g. an inactive transform).
  virtual des::Task<void> run(WriteRequest& req) = 0;

  /// Epilogue invoked after every downstream stage finished, in reverse
  /// composition order (e.g. a Schedule stage releasing its token once
  /// the Storage stage is done).
  virtual void complete(WriteRequest& req) { (void)req; }
};

}  // namespace dmr::iopath
