#include "simmpi/collective_io.hpp"

#include <algorithm>
#include <cassert>

namespace dmr::simmpi {

namespace {
/// Aggregators per node (ROMIO cb_nodes style): the common SMP default.
constexpr int kAggregatorsPerNode = 1;
/// Request size aggregators issue to the FS (collective buffer size).
constexpr Bytes kCollectiveBuffer = 16 * MiB;
}  // namespace

CollectiveWriter::CollectiveWriter(World& world, fs::SimFs& fs)
    : world_(&world), fs_(&fs) {
  assert(kAggregatorsPerNode <= world.ranks_per_node());
}

int CollectiveWriter::num_aggregators() const {
  return world_->num_nodes_used() * kAggregatorsPerNode;
}

bool CollectiveWriter::is_aggregator(int rank) const {
  return rank % world_->ranks_per_node() < kAggregatorsPerNode;
}

int CollectiveWriter::aggregator_index(int rank) const {
  return world_->node_of(rank) * kAggregatorsPerNode +
         rank % world_->ranks_per_node();
}

des::Task<void> CollectiveWriter::collective_write(int rank,
                                                   Bytes bytes_per_rank) {
  World& w = *world_;

  // Everyone synchronizes to open the shared file; rank 0 creates it,
  // striped over every server (that is what a large shared file does).
  co_await w.barrier();
  if (rank == 0) {
    current_file_ = co_await fs_->create(w.core_of(rank),
                                         fs_->num_servers(),
                                         /*shared=*/true);
    file_ready_ = true;
  } else {
    co_await fs_->open(w.core_of(rank), current_file_);
  }
  co_await w.barrier();  // file visible to all

  // Phase 1: redistribution by file offset. Each rank ships its whole
  // contribution; aggregators additionally receive their aggregate
  // share through their NIC. The alltoall synchronizes internally.
  co_await w.alltoall(rank, bytes_per_rank);

  const Bytes total = bytes_per_rank * static_cast<Bytes>(w.size());
  const int num_agg = num_aggregators();
  const Bytes per_agg = (total + num_agg - 1) / num_agg;

  if (is_aggregator(rank)) {
    const int idx = aggregator_index(rank);
    // Receive this aggregator's share (minus what it contributed itself).
    const Bytes incoming =
        per_agg > bytes_per_rank ? per_agg - bytes_per_rank : 0;
    if (incoming > 0) {
      co_await w.node_of_rank(rank).nic().transfer(incoming);
    }
    // Phase 2: write the contiguous range [idx*per_agg, ...) — aligned
    // down to stripe boundaries like ROMIO's file-domain split.
    const Bytes stripe = fs_->spec().stripe_size;
    const std::uint64_t offset =
        (static_cast<std::uint64_t>(idx) * per_agg) / stripe * stripe;
    fs::WriteOptions opts;
    opts.max_request = kCollectiveBuffer;
    co_await fs_->write(w.core_of(rank), current_file_, offset, per_agg,
                        opts);
  }

  // The collective write returns together on all ranks: aggregators
  // finish their ranges, rank 0 closes the file, and the closing barrier
  // releases everyone at the same simulated time.
  co_await w.barrier();
  if (rank == 0) {
    co_await fs_->close(w.core_of(rank), current_file_);
    file_ready_ = false;
  }
  co_await w.barrier();
}

}  // namespace dmr::simmpi
