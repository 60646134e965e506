// ROMIO-like two-phase collective write (paper §II-B "collective I/O").
//
// Phase 1: ranks redistribute their data by file offset to a subset of
// aggregator ranks (one per node, like ROMIO's cb_config on SMP
// clusters) — a dense, synchronizing exchange.
// Phase 2: aggregators write contiguous file ranges of one shared file;
// every striped request contends with the other aggregators at the
// servers and through the extent-lock managers.
//
// The operation is collective: all ranks call collective_write and leave
// together (closing barrier), which is exactly the synchronization the
// paper blames for phase-to-phase variability.
#pragma once

#include "des/task.hpp"
#include "fs/sim_fs.hpp"
#include "simmpi/world.hpp"

namespace dmr::simmpi {

class CollectiveWriter {
 public:
  CollectiveWriter(World& world, fs::SimFs& fs);

  /// One collective write phase: every rank contributes `bytes_per_rank`
  /// to a fresh shared file. Must be called by all ranks of the world.
  des::Task<void> collective_write(int rank, Bytes bytes_per_rank);

  /// Number of aggregator ranks.
  int num_aggregators() const;

 private:
  bool is_aggregator(int rank) const;
  /// Index of `rank` among the aggregators (valid when is_aggregator).
  int aggregator_index(int rank) const;

  World* world_;
  fs::SimFs* fs_;
  // Per-phase shared state (file handle created by rank 0).
  fs::FileHandle current_file_;
  bool file_ready_ = false;
};

}  // namespace dmr::simmpi
