// The concrete DES stages the simulated strategies compose. Each stage
// performs exactly the awaits the pre-pipeline monolith performed, so a
// composition replays the same event timeline as the inline code it
// replaced (pinned by tests/pipeline_equivalence_test.cpp).
//
// Thread-safety: DES-side only — every stage runs inside the single
// thread of its des::Engine; no internal synchronization needed or
// provided.
#pragma once

#include "cluster/machine.hpp"
#include "des/engine.hpp"
#include "des/sync.hpp"
#include "fault/retry.hpp"
#include "fs/sim_fs.hpp"
#include "iopath/compression_model.hpp"
#include "iopath/stage.hpp"
#include "simmpi/collective_io.hpp"

namespace dmr::sched {
class AdaptiveSlotController;
}

namespace dmr::iopath {

/// Ingest — one memcpy into the origin node's shared-memory segment,
/// contended with the node's other cores through the memory bus and
/// jittered by bus traffic (the paper's ~0.1 s on the 0.2 s write).
/// `traffic_factor` > 1 models the FUSE detour of §V-B, where every
/// byte crosses the kernel (~10x the bus traffic).
class ShmIngestStage : public Stage {
 public:
  ShmIngestStage(des::Engine& eng, double traffic_factor = 1.0)
      : eng_(&eng), factor_(traffic_factor) {}

  StageKind kind() const override { return StageKind::kIngest; }
  des::Task<void> run(WriteRequest& req) override;

 private:
  des::Engine* eng_;
  double factor_;
};

/// Transport — PreDatA/active-buffer style off-node staging: out
/// through the origin node's NIC (contended by sibling ranks), across
/// the fabric, into the staging node's NIC (contended by every rank of
/// the staging group).
class RemoteTransportStage : public Stage {
 public:
  explicit RemoteTransportStage(cluster::Machine& machine)
      : machine_(&machine) {}

  StageKind kind() const override { return StageKind::kTransport; }
  des::Task<void> run(WriteRequest& req) override;

 private:
  cluster::Machine* machine_;
};

/// Transform — the shared compression cost model: CPU time on the
/// executing core at the model's rate, then the payload shrinks by the
/// model's ratio. Inactive models complete without suspending.
class TransformStage : public Stage {
 public:
  TransformStage(des::Engine& eng, CompressionModel model)
      : eng_(&eng), model_(model) {}

  StageKind kind() const override { return StageKind::kTransform; }
  des::Task<void> run(WriteRequest& req) override;

  const CompressionModel& model() const { return model_; }

 private:
  des::Engine* eng_;
  CompressionModel model_;
};

/// Schedule — when the writer may touch the file system, per
/// `Scheduling` (iopath/stage.hpp). A token is held until every
/// downstream stage finished (released in complete()).
class ScheduleStage : public Stage {
 public:
  /// `tokens` is required by kTokens and `controller` by kAdaptive;
  /// other modes ignore them. The stage owns neither pointer.
  ScheduleStage(des::Engine& eng, SimTime interval, int num_writers,
                Scheduling mode, des::Semaphore* tokens = nullptr,
                sched::AdaptiveSlotController* controller = nullptr)
      : eng_(&eng),
        interval_(interval),
        num_writers_(num_writers),
        mode_(mode),
        tokens_(tokens),
        controller_(controller) {}

  StageKind kind() const override { return StageKind::kSchedule; }
  des::Task<void> run(WriteRequest& req) override;
  void complete(WriteRequest& req) override;

 private:
  des::Engine* eng_;
  SimTime interval_;
  int num_writers_;
  Scheduling mode_;
  des::Semaphore* tokens_;
  sched::AdaptiveSlotController* controller_;
};

/// Storage — the parallel-file-system protocol: create a file, issue
/// the striped writes, close. With a retry policy (default disabled,
/// which preserves the historical infallible timeline), failed writes
/// are retried with decorrelated-jitter backoff in *simulated* time,
/// and the request's status/retries record the outcome.
class StorageStage : public Stage {
 public:
  StorageStage(fs::SimFs& fs, int stripe_count, Bytes max_request,
               fault::RetryPolicy retry = {}, std::uint64_t seed = 0)
      : fs_(&fs),
        stripe_count_(stripe_count),
        max_request_(max_request),
        retry_(retry),
        seed_(seed) {}

  StageKind kind() const override { return StageKind::kStorage; }
  des::Task<void> run(WriteRequest& req) override;

 private:
  fs::SimFs* fs_;
  int stripe_count_;
  Bytes max_request_;
  fault::RetryPolicy retry_;
  std::uint64_t seed_;
};

/// Storage — ROMIO-style two-phase collective write to one shared file.
/// The aggregation exchange and the striped writes are fused inside the
/// collective protocol, so the whole operation reports as Storage.
class CollectiveWriteStage : public Stage {
 public:
  explicit CollectiveWriteStage(simmpi::CollectiveWriter& writer)
      : writer_(&writer) {}

  StageKind kind() const override { return StageKind::kStorage; }
  des::Task<void> run(WriteRequest& req) override;

 private:
  simmpi::CollectiveWriter* writer_;
};

}  // namespace dmr::iopath
