// Persistency layer (paper §III-C): the dedicated core gathers the
// blocks of one iteration into a single large DH5 file — one file per
// node per iteration instead of one per process — optionally compressing
// each variable through its configured codec pipeline.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/thread_annotations.hpp"
#include "core/metadata.hpp"
#include "fault/fault.hpp"
#include "fault/retry.hpp"
#include "format/dh5.hpp"
#include "iopath/metrics.hpp"
#include "shm/shared_buffer.hpp"

namespace dmr::core {

struct PersistencyStats {
  std::uint64_t files_written = 0;
  std::uint64_t datasets_written = 0;
  Bytes raw_bytes = 0;
  Bytes stored_bytes = 0;
  /// Retries consumed by the bounded-retry policy.
  std::uint64_t retries = 0;
  /// Iterations whose write still failed after all retries.
  std::uint64_t failed_writes = 0;

  double compression_ratio() const {
    return stored_bytes == 0
               ? 1.0
               : static_cast<double>(raw_bytes) /
                     static_cast<double>(stored_bytes);
  }
};

class PersistencyLayer {
 public:
  /// Files are written under `output_dir` as
  /// `<prefix>_node<id>_it<iteration>.dh5`.
  PersistencyLayer(std::string output_dir, std::string prefix, int node_id);

  /// Writes all `blocks` (typically one iteration) into one file, reading
  /// payloads from `buffer` and encoding each through its block's codec
  /// chain. Does NOT free the blocks — the caller owns shared memory
  /// lifetime. With a retry policy installed, failed attempts back off
  /// (decorrelated jitter, wall clock) and retry up to the policy's
  /// budget; the returned status is the final outcome.
  Status write_blocks(std::int64_t iteration,
                      const std::vector<VariableBlock>& blocks,
                      const shm::SharedBuffer& buffer);

  /// Installs the bounded-retry policy (default: disabled).
  void set_resilience(const fault::RetryPolicy& retry) { retry_ = retry; }

  /// Attaches a fault injector (null detaches): storage.write rules
  /// fail individual persistency attempts with kIoError, keyed by
  /// (iteration, attempt) so a given attempt's fate is reproducible.
  void set_fault_injector(const fault::FaultInjector* injector) {
    injector_ = injector;
  }

  /// Path the file for `iteration` is (or would be) written to.
  std::string file_path(std::int64_t iteration) const;

  /// Returns a snapshot: the shard thread updates the counters while
  /// DamarisNode::stats() may read them from any thread, so handing out
  /// a reference to the live struct would race (found by the
  /// -Wthread-safety rollout).
  PersistencyStats stats() const {
    MutexLock lock(stats_mutex_);
    return stats_;
  }

  /// Wall-clock per-stage counters of this layer: Transform is codec
  /// encode time, Storage is container write + finalize time. Snapshot,
  /// like stats().
  iopath::PipelineStats stage_stats() const {
    MutexLock lock(stats_mutex_);
    return stage_stats_;
  }

 private:
  Status write_blocks_once(std::int64_t iteration,
                           const std::vector<VariableBlock>& blocks,
                           const shm::SharedBuffer& buffer);

  std::string output_dir_;
  std::string prefix_;
  int node_id_;
  mutable Mutex stats_mutex_;
  PersistencyStats stats_ DMR_GUARDED_BY(stats_mutex_);
  iopath::PipelineStats stage_stats_ DMR_GUARDED_BY(stats_mutex_);
  fault::RetryPolicy retry_;
  const fault::FaultInjector* injector_ = nullptr;
};

}  // namespace dmr::core
