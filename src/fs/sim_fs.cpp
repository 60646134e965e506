#include "fs/sim_fs.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "des/process.hpp"

namespace dmr::fs {

namespace {
/// Stable stream id for (file, client) so servers can detect switches.
std::uint64_t stream_key(std::uint64_t file_id, std::uint64_t client) {
  return file_id * 1000003ULL + client;
}
}  // namespace

SimFs::Server::Server(des::Engine& eng, const cluster::FsSpec& spec,
                      cluster::NoiseModel noise_model)
    : queue(eng, spec.server_bandwidth, spec.per_op_overhead),
      lock_manager(eng, 1.0 /* rate unused; duration-based ops */),
      metadata(eng, 1.0),
      noise(std::move(noise_model)) {}

SimFs::MdsShard::MdsShard(des::Engine& eng, cluster::NoiseModel noise_model)
    : primary(eng, 1.0), noise(std::move(noise_model)) {}

SimFs::SimFs(cluster::Machine& machine)
    : machine_(&machine),
      spec_(machine.spec().fs),
      eng_(&machine.engine()),
      capacity_(machine.spec().fs.capacity) {
  servers_.reserve(spec_.data_servers);
  for (int i = 0; i < spec_.data_servers; ++i) {
    servers_.push_back(std::make_unique<Server>(
        *eng_, spec_,
        cluster::NoiseModel(machine.spec().noise,
                            Rng::for_entity(machine.seed(),
                                            0x53525600ULL + i))));
    auto& srv = *servers_.back();
    const trace::EntityId id{trace::EntityType::kFsServer,
                             static_cast<std::uint32_t>(i)};
    srv.queue.set_trace(id, "write");
    srv.lock_manager.set_trace(id, "lock");
    srv.metadata.set_trace(id, "metadata");
  }
  // The serialized model is exactly one shard with no replicas — its
  // RNG stream, queue and trace lane are unchanged from the historical
  // single-MDS timeline (golden-pinned).
  const bool sharded = spec_.metadata == cluster::MetadataModel::kSharded;
  if (sharded ||
      spec_.metadata == cluster::MetadataModel::kSerializedSingleServer) {
    const int shards = sharded ? std::max(1, spec_.mds_shards) : 1;
    const int replicas = sharded ? std::max(1, spec_.mds_replicas) : 1;
    mds_shards_.reserve(shards);
    for (int s = 0; s < shards; ++s) {
      mds_shards_.push_back(std::make_unique<MdsShard>(
          *eng_,
          cluster::NoiseModel(machine.spec().noise,
                              Rng::for_entity(machine.seed(),
                                              0x4d445300ULL + s))));
      MdsShard& shard = *mds_shards_.back();
      // Every shard (and each of its replicas) is its own mds lane. The
      // span name is a literal: trace events outlive the file system.
      shard.primary.set_trace(
          {trace::EntityType::kMds, static_cast<std::uint32_t>(s)}, "mds");
      for (int r = 1; r < replicas; ++r) {
        shard.replicas.push_back(
            std::make_unique<des::ServiceQueue>(*eng_, 1.0));
        // Replica lanes follow the primaries: shards + s*(R-1) + r-1.
        const int lane = shards + s * (replicas - 1) + (r - 1);
        shard.replicas.back()->set_trace(
            {trace::EntityType::kMds, static_cast<std::uint32_t>(lane)},
            "mds");
      }
    }
  }
}

MdsShardMap SimFs::shard_map() const {
  MdsShardMap map;
  map.shard_count =
      static_cast<int>(std::max<std::size_t>(1, mds_shards_.size()));
  map.replica_count =
      mds_shards_.empty()
          ? 1
          : 1 + static_cast<int>(mds_shards_.front()->replicas.size());
  map.data_server_count = static_cast<int>(servers_.size());
  return map;
}

SimTime SimFs::mds_busy(int shard) const {
  if (shard < 0 || shard >= static_cast<int>(mds_shards_.size())) return 0.0;
  return mds_shards_[shard]->primary.total_busy();
}

void SimFs::set_fault_injector(const fault::FaultInjector* injector) {
  fault_ = injector;
  for (auto& srv : servers_) {
    srv->queue.set_fault(injector, fault::Site::kServerSlow);
  }
}

int SimFs::server_of(const FileHandle& file,
                     std::uint64_t stripe_index) const {
  const int within = static_cast<int>(stripe_index %
                                      static_cast<std::uint64_t>(
                                          std::max(1, file.stripe_count)));
  return (file.first_server + within) % num_servers();
}

SimTime SimFs::commit_chunk(int server, std::uint64_t stream_id, Bytes bytes,
                            SimTime earliest_start, bool shared_file) {
  Server& s = *servers_[server];
  SimTime extra = 0.0;
  if (s.last_stream != stream_id) {
    extra += spec_.stream_switch_cost;
    s.last_stream = stream_id;
    ++stats_.stream_switches;
  }
  double mult = s.noise.storage_multiplier();
  if (shared_file) {
    mult *= spec_.shared_write_penalty;
  }
  ++stats_.write_ops;
  return s.queue.commit_from(earliest_start, bytes, mult, extra);
}

void SimFs::spawn_interference(SimTime horizon) {
  const cluster::NoiseSpec& noise = machine_->spec().noise;
  if (noise.burst_slowdown <= 0.0) return;
  for (int i = 0; i < num_servers(); ++i) {
    servers_[i]->burst_rng =
        Rng::for_entity(machine_->seed(), 0x42555253ULL + i);
    // The foreign job's I/O occupies the server directly: during an ON
    // period of length L with slowdown k, it steals (k-1)*L of service
    // time from whatever our job has queued there — ops in flight slow
    // down by ~k, idle periods absorb the work for free, exactly like
    // real cross-application contention.
    eng_->spawn([](des::Engine& eng, Server& srv, cluster::NoiseSpec ns,
                   SimTime end) -> des::Process {
      while (eng.now() < end) {
        co_await eng.delay(srv.burst_rng.exponential(ns.burst_off_mean));
        const SimTime on = srv.burst_rng.exponential(ns.burst_on_mean);
        srv.queue.commit_duration(on * (ns.burst_slowdown - 1.0));
        srv.burst_active = true;
        co_await eng.delay(on);
        srv.burst_active = false;
      }
    }(*eng_, *servers_[i], noise, horizon));
  }
  if (noise.storm_slowdown > 0.0) {
    // Machine-wide storms: one daemon stalls every server at once.
    eng_->spawn([](des::Engine& eng, SimFs& fs, cluster::NoiseSpec ns,
                   SimTime end) -> des::Process {
      Rng rng = Rng::for_entity(fs.machine_->seed(), 0x53544f524dULL);
      while (eng.now() < end) {
        co_await eng.delay(rng.exponential(ns.storm_off_mean));
        const SimTime on = rng.exponential(ns.storm_on_mean);
        for (auto& srv : fs.servers_) {
          srv->queue.commit_duration(on * (ns.storm_slowdown - 1.0));
        }
        co_await eng.delay(on);
      }
    }(*eng_, *this, noise, horizon));
  }
}

des::Task<void> SimFs::metadata_op(int client_core, SimTime cost,
                                   bool mutate, std::uint64_t key) {
  // Metadata requests are tiny; network time is folded into the op cost.
  switch (spec_.metadata) {
    case cluster::MetadataModel::kSerializedSingleServer:
    case cluster::MetadataModel::kSharded: {
      MdsShard& shard = *mds_shards_[key % mds_shards_.size()];
      const double mult = shard.noise.storage_multiplier();
      if (mutate || shard.replicas.empty()) {
        co_await shard.primary.occupy(cost, mult);
        if (mutate) {
          // Replicas apply the mutation asynchronously off the client's
          // critical path (the replication write amplification still
          // consumes their service time).
          for (auto& rep : shard.replicas) rep->commit_duration(cost * mult);
        }
      } else {
        // Reads fan out round-robin over primary + replicas.
        const std::uint64_t pick =
            shard.next_read++ % (shard.replicas.size() + 1);
        if (pick == 0) {
          co_await shard.primary.occupy(cost, mult);
        } else {
          ++stats_.mds_replica_reads;
          co_await shard.replicas[pick - 1]->occupy(cost, mult);
        }
      }
      break;
    }
    case cluster::MetadataModel::kDistributed:
    case cluster::MetadataModel::kSharedDisk: {
      // Hash the client to a server's metadata queue; contention only
      // among clients mapping to the same server.
      Server& s = *servers_[static_cast<std::uint64_t>(client_core) %
                            servers_.size()];
      const double mult = s.noise.storage_multiplier();
      co_await s.metadata.occupy(cost, mult);
      break;
    }
  }
}

des::Task<FileHandle> SimFs::create(int client_core, int stripe_count,
                                    bool shared, Placement place) {
  FileHandle h;
  h.id = next_file_id_++;
  h.stripe_count = stripe_count <= 0 ? spec_.default_stripe_count
                                     : stripe_count;
  h.stripe_count = std::min(h.stripe_count, num_servers());
  if (place.first_server >= 0) {
    // Server-directed placement: confine the stripes to the reserved
    // slice [first_server, first_server + span), spreading files across
    // it by id so a tenant's writers do not all pile on one server.
    const int span = place.server_span > 0
                         ? std::min(place.server_span, num_servers())
                         : num_servers();
    h.stripe_count = std::min(h.stripe_count, span);
    const int slots = span - h.stripe_count + 1;
    h.first_server =
        (place.first_server +
         static_cast<int>(h.id % static_cast<std::uint64_t>(slots))) %
        num_servers();
  } else {
    h.first_server = static_cast<int>(h.id % servers_.size());
  }
  h.shared = shared;
  ++stats_.creates;

  SimTime cost = spec_.metadata_create_cost;
  if (spec_.metadata == cluster::MetadataModel::kSharedDisk) {
    cost += spec_.lock_acquire_cost;  // directory token traffic
  }
  co_await metadata_op(client_core, cost, /*mutate=*/true, h.id);
  co_return h;
}

des::Task<void> SimFs::open(int client_core, FileHandle file) {
  ++stats_.opens;
  co_await metadata_op(client_core, spec_.metadata_open_cost,
                       /*mutate=*/false, file.id);
}

des::Task<void> SimFs::acquire_lock(int server, const FileHandle& file,
                                    std::uint64_t client) {
  if (!file.shared ||
      (spec_.lock_acquire_cost <= 0.0 && spec_.lock_revoke_cost <= 0.0)) {
    co_return;
  }
  Server& s = *servers_[server];
  SimTime cost = spec_.lock_acquire_cost;
  const std::uint64_t holder_key = stream_key(file.id, client);
  if (s.last_lock_holder != holder_key) {
    // Extent lock moves to a different client: revoke + flush + regrant.
    if (s.last_lock_holder != ~0ULL) {
      cost += spec_.lock_revoke_cost;
      ++stats_.lock_revocations;
    }
    s.last_lock_holder = holder_key;
  }
  co_await s.lock_manager.occupy(cost);
}

des::Task<void> SimFs::write(int client_core, FileHandle file,
                             std::uint64_t offset, Bytes bytes,
                             WriteOptions opts) {
  // Legacy fire-and-forget path: strategies that model infallible
  // storage keep their exact timeline; fault-aware callers use
  // try_write() and decide what to do with the status.
  (void)co_await try_write(client_core, file, offset, bytes, opts);
}

des::Task<Status> SimFs::try_write(int client_core, FileHandle file,
                                   std::uint64_t offset, Bytes bytes,
                                   WriteOptions opts) {
  assert(offset % spec_.stripe_size == 0 &&
         "writes must be stripe-aligned in this model");
  // Capacity is checked before any simulated time passes: a full file
  // system rejects the write up front (ENOSPC), it does not stream data
  // first. Injected storage.space faults model transient exhaustion the
  // same way.
  if (capacity_ > 0 && stats_.bytes_written + bytes > capacity_) {
    ++stats_.enospc_errors;
    co_return no_space("file system full: " +
                       std::to_string(stats_.bytes_written) + " + " +
                       std::to_string(bytes) + " bytes exceeds capacity " +
                       std::to_string(capacity_));
  }
  if (fault_ != nullptr &&
      fault_->fires(fault::Site::kStorageSpace, eng_->now(),
                    fault_op_seq_++)) {
    ++stats_.enospc_errors;
    co_return no_space("injected ENOSPC");
  }
  cluster::Node& node = machine_->node_of_core(client_core);
  const std::uint64_t stream_id =
      stream_key(file.id, static_cast<std::uint64_t>(client_core));
  const Bytes stripe = spec_.stripe_size;
  const Bytes request =
      opts.max_request == 0 ? stripe
                            : std::max<Bytes>(stripe, opts.max_request);

  SimTime last_completion = eng_->now();
  std::vector<Bytes> per_server(servers_.size(), 0);
  Bytes sent = 0;
  while (sent < bytes) {
    const Bytes req = std::min<Bytes>(request, bytes - sent);
    if (fault_ != nullptr) {
      // Per-request fault decisions: a stuck server hangs the request
      // for the rule's stall time; a transient EIO kills the write
      // (bytes streamed so far are lost, nothing is charged against
      // capacity). Keys are the FS-wide op sequence — deterministic
      // under the single-threaded DES engine.
      if (fault_->fires(fault::Site::kStorageStall, eng_->now(),
                        fault_op_seq_++)) {
        ++stats_.injected_stalls;
        co_await eng_->delay(fault_->stall_of(fault::Site::kStorageStall));
      }
      if (fault_->fires(fault::Site::kStorageWrite, eng_->now(),
                        fault_op_seq_++)) {
        ++stats_.injected_errors;
        co_return io_error("injected EIO on striped request at offset " +
                           std::to_string(offset + sent));
      }
    }
    const SimTime request_started = eng_->now();
    // Ship the request: data streams cut-through in stripe-sized frames
    // through this node's NIC (shared with the other cores of the node)
    // and the storage network (shared with everyone). Request size does
    // not change the wire time — it changes the number of *server
    // operations* below.
    Bytes placed = 0;
    while (placed < req) {
      const std::uint64_t stripe_index = (offset + sent + placed) / stripe;
      const Bytes chunk = std::min<Bytes>(stripe, req - placed);
      if (spec_.client_stream_rate > 0.0) {
        // The client core itself can only format/issue so fast (HDF5
        // serialization is single-threaded) — a serial floor that caps a
        // lone writer no matter how idle the servers are.
        co_await eng_->delay(static_cast<double>(chunk) /
                             spec_.client_stream_rate);
      }
      co_await node.nic().transfer(chunk);
      co_await machine_->storage_network().transfer(chunk);
      per_server[server_of(file, stripe_index)] += chunk;
      placed += chunk;
    }
    // Each touched server services the request's bytes as ONE operation:
    // per-op overhead and stream-switch penalties are paid per request,
    // which is what makes few large requests cheaper than many small
    // ones. Server work is committed asynchronously; the client
    // pipelines the next request while the disks drain.
    for (std::size_t srv = 0; srv < per_server.size(); ++srv) {
      if (per_server[srv] == 0) continue;
      co_await acquire_lock(static_cast<int>(srv), file, client_core);
      const SimTime done =
          commit_chunk(static_cast<int>(srv), stream_id, per_server[srv],
                       request_started, file.shared);
      last_completion = std::max(last_completion, done);
      per_server[srv] = 0;
    }
    sent += req;
  }
  stats_.bytes_written += bytes;
  co_await eng_->sleep_until(last_completion);
  co_return Status::ok();
}

des::Task<void> SimFs::close(int client_core, FileHandle file) {
  co_await metadata_op(client_core, spec_.metadata_open_cost,
                       /*mutate=*/false, file.id);
}

des::Process SimFs::drain_process(int client_core, int stripe_count,
                                  Bytes bytes, Bytes max_request,
                                  Placement place) {
  FileHandle h = co_await create(client_core, stripe_count,
                                 /*shared=*/false, place);
  WriteOptions opts;
  opts.max_request = max_request;
  co_await write(client_core, h, 0, bytes, opts);
  co_await close(client_core, h);
}

void SimFs::drain_async(int client_core, int stripe_count, Bytes bytes,
                        Bytes max_request, Placement place) {
  eng_->spawn(
      drain_process(client_core, stripe_count, bytes, max_request, place));
}

}  // namespace dmr::fs
