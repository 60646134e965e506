// Simulated parallel file system.
//
// Models the three behaviours the paper identifies as jitter sources in
// the storage stack (§I, §II):
//   - metadata serialization: Lustre-like single MDS turns a
//     file-per-process create storm into a serial queue (the sharded
//     model partitions the namespace over several such queues, with
//     optional read replicas, and hands tenants the shard map);
//   - per-request costs and stream switching: servers pay a fixed
//     overhead per request plus a penalty whenever consecutive requests
//     belong to different write streams (different file/client) — this is
//     what punishes many small writers and rewards few large ones;
//   - byte-range/extent locks on shared files: when writers interleave in
//     one file (collective I/O), the lock travels between clients and its
//     revocation cost serializes at the lock manager.
//
// Cross-application interference (cause 4) multiplies individual service
// times with heavy-tailed bursts via the per-server NoiseModel.
//
// All client operations are awaitable Tasks issued by a core: data
// traverses the issuing node's NIC (contended by its cores), then the
// storage network (contended by everyone), then queues at the striped
// servers.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/machine.hpp"
#include "cluster/specs.hpp"
#include "common/status.hpp"
#include "common/units.hpp"
#include "des/process.hpp"
#include "des/resources.hpp"
#include "des/task.hpp"
#include "fault/fault.hpp"

namespace dmr::fs {

/// A file created in the simulated FS.
struct FileHandle {
  std::uint64_t id = 0;
  int stripe_count = 1;
  int first_server = 0;
  bool shared = false;  // written concurrently by many clients
};

/// Per-write options.
struct WriteOptions {
  /// Largest request the client issues at once; 0 means one stripe unit.
  Bytes max_request = 0;
};

/// Server-directed placement of a new file (ViPIOS-style negotiation):
/// a facility can confine a tenant's files to a reserved slice of the
/// data servers instead of the default hash placement.
struct Placement {
  /// First data server of the reserved slice; < 0 keeps hash placement.
  int first_server = -1;
  /// Number of servers in the slice; 0 means all servers.
  int server_span = 0;
};

/// The shard map handed to tenants at admission: how the namespace is
/// partitioned so clients can predict which metadata shard a file id
/// lands on (and size their create storms accordingly).
struct MdsShardMap {
  int shard_count = 1;
  int replica_count = 1;
  int data_server_count = 0;
  int shard_of(std::uint64_t key) const {
    return static_cast<int>(key % static_cast<std::uint64_t>(shard_count));
  }
};

/// Aggregate counters for reporting.
struct FsStats {
  Bytes bytes_written = 0;
  std::uint64_t creates = 0;
  std::uint64_t opens = 0;
  std::uint64_t write_ops = 0;     // striped server requests
  std::uint64_t mds_replica_reads = 0;  // reads served by a read replica
  std::uint64_t stream_switches = 0;
  std::uint64_t lock_revocations = 0;
  std::uint64_t enospc_errors = 0;     // capacity model + injected ENOSPC
  std::uint64_t injected_errors = 0;   // injected transient EIO
  std::uint64_t injected_stalls = 0;   // injected stuck-server stalls
};

class SimFs {
 public:
  SimFs(cluster::Machine& machine);

  SimFs(const SimFs&) = delete;
  SimFs& operator=(const SimFs&) = delete;

  /// Creates a file from core `client_core`. stripe_count <= 0 uses the
  /// platform default; it is clamped to the number of servers (or to the
  /// placement slice when one is given).
  des::Task<FileHandle> create(int client_core, int stripe_count = -1,
                               bool shared = false, Placement place = {});

  /// Opens an existing file (metadata round-trip only).
  des::Task<void> open(int client_core, FileHandle file);

  /// Writes `bytes` at `offset` in `file` from `client_core`. Completes
  /// when all striped requests have been serviced by the data servers.
  /// Errors (capacity exhaustion, injected faults) are swallowed — use
  /// try_write() when the caller wants to observe and retry them.
  des::Task<void> write(int client_core, FileHandle file,
                        std::uint64_t offset, Bytes bytes,
                        WriteOptions opts = {});

  /// Like write(), but reports failures instead of swallowing them:
  ///   - kNoSpace when the write would exceed the configured capacity,
  ///     or an injected storage.space fault fires (checked before any
  ///     simulated time passes — the client learns ENOSPC up front);
  ///   - kIoError when an injected storage.write fault hits one of the
  ///     striped requests (bytes already streamed are lost; nothing is
  ///     charged against capacity).
  /// Injected storage.stall faults hang the request for the rule's
  /// stall time but do not fail it.
  des::Task<Status> try_write(int client_core, FileHandle file,
                              std::uint64_t offset, Bytes bytes,
                              WriteOptions opts = {});

  /// Closes the file (small metadata update).
  des::Task<void> close(int client_core, FileHandle file);

  /// Spawns a detached background drain: create + write + close of
  /// `bytes` from `client_core` with the given placement. Used by the
  /// staging tier — the client returns as soon as the burst buffer has
  /// absorbed its data while the drain contends with everyone else for
  /// the real servers (bytes are conserved, jitter is not observed).
  void drain_async(int client_core, int stripe_count, Bytes bytes,
                   Bytes max_request, Placement place = {});

  const FsStats& stats() const { return stats_; }
  const cluster::FsSpec& spec() const { return spec_; }
  int num_servers() const { return static_cast<int>(servers_.size()); }
  des::Engine& engine() { return *eng_; }

  /// Total usable capacity; writes past it fail with kNoSpace. 0 means
  /// unbounded. Seeded from FsSpec::capacity, overridable per run.
  Bytes capacity() const { return capacity_; }
  void set_capacity(Bytes capacity) { capacity_ = capacity; }

  /// Attaches a fault injector (null detaches): storage.write /
  /// storage.space / storage.stall rules hit individual write requests;
  /// server.slow windows multiply every data server's service times.
  void set_fault_injector(const fault::FaultInjector* injector);

  /// Cumulative busy time of data server `i` (for utilization reports).
  SimTime server_busy(int i) const { return servers_[i]->queue.total_busy(); }

  /// How the metadata namespace is partitioned (1 shard for the single-
  /// MDS and distributed models).
  MdsShardMap shard_map() const;
  /// Cumulative busy time of metadata shard `shard`'s primary queue.
  SimTime mds_busy(int shard) const;

  /// Starts the cross-application interference daemons (one per server,
  /// NoiseSpec burst parameters) until simulated time `horizon`. Call
  /// once, before the workload's processes are spawned, when the
  /// platform models a shared machine.
  void spawn_interference(SimTime horizon);

 private:
  struct Server {
    des::ServiceQueue queue;
    des::ServiceQueue lock_manager;
    des::ServiceQueue metadata;  // used by distributed metadata models
    cluster::NoiseModel noise;
    Rng burst_rng{0};
    bool burst_active = false;  // a foreign job is hammering this server
    std::uint64_t last_stream = ~0ULL;  // (file,client) currently streaming
    std::uint64_t last_lock_holder = ~0ULL;  // per-server extent lock owner

    Server(des::Engine& eng, const cluster::FsSpec& spec,
           cluster::NoiseModel noise_model);
  };

  /// Routes a data chunk to its server by stripe index.
  int server_of(const FileHandle& file, std::uint64_t stripe_index) const;

  /// Commits one striped request on a server; returns its completion
  /// time. Applies stream-switch and interference penalties. The server
  /// may have started the op as early as `earliest_start` (streaming
  /// overlap with the network transfer).
  SimTime commit_chunk(int server, std::uint64_t stream_id, Bytes bytes,
                       SimTime earliest_start, bool shared_file);

  /// One hash-partitioned metadata shard: a serial primary queue (the
  /// single-MDS model is exactly one of these) plus optional read
  /// replicas that serve opens/closes round-robin.
  struct MdsShard {
    des::ServiceQueue primary;
    std::vector<std::unique_ptr<des::ServiceQueue>> replicas;
    cluster::NoiseModel noise;
    std::uint64_t next_read = 0;  // round-robin cursor over replicas

    MdsShard(des::Engine& eng, cluster::NoiseModel noise_model);
  };

  /// Lock cost for `client` writing `file` on `server` (0 for unshared).
  des::Task<void> acquire_lock(int server, const FileHandle& file,
                               std::uint64_t client);

  /// `mutate` ops (creates) serialize at the shard primary; reads
  /// (open/close) may be served by a replica. `key` picks the shard.
  des::Task<void> metadata_op(int client_core, SimTime cost, bool mutate,
                              std::uint64_t key);
  des::Process drain_process(int client_core, int stripe_count, Bytes bytes,
                             Bytes max_request, Placement place);

  cluster::Machine* machine_;
  cluster::FsSpec spec_;
  des::Engine* eng_;
  std::vector<std::unique_ptr<Server>> servers_;
  std::vector<std::unique_ptr<MdsShard>> mds_shards_;  // MDS-queue models
  std::uint64_t next_file_id_ = 1;
  FsStats stats_;
  Bytes capacity_ = 0;
  const fault::FaultInjector* fault_ = nullptr;
  std::uint64_t fault_op_seq_ = 0;  // keys per-request fault decisions
};

}  // namespace dmr::fs
