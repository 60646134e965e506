// The Damaris middleware (paper §III): dedicated-core asynchronous I/O
// for one multicore SMP node.
//
// A DamarisNode owns the shared buffer and one *server shard* per
// configured dedicated core (<dedicated cores="N"/>). Each shard has its
// own event queue, metadata system and persistency layer and serves a
// fixed group of clients — the paper's "symmetric" multi-dedicated-core
// semantics (§V-A): client c is served by shard c mod N. With the
// default N = 1 this degenerates to the single dedicated core used
// throughout the paper's evaluation.
//
// Compute cores obtain Client handles and call write()/signal() — a
// write is one copy into shared memory plus a notification push, run on
// the calling thread, which is why the simulation-visible write time
// collapses to memcpy speed (the paper's 0.2 s constant). Each dedicated
// core drains its queue in batches.
//
//   dmr::config::Config cfg = ...;                 // from XML
//   dmr::core::DamarisNode node(cfg, /*clients=*/3);
//   node.start();
//   auto c = node.client(0);
//   c.write("my_variable", step, data);            // df_write
//   c.signal("my_event", step);                    // df_signal
//   c.end_iteration(step);                         // triggers persistence
//   c.finalize();                                  // df_finalize
//   node.stop();
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "check/fault_checker.hpp"
#include "check/protocol_checker.hpp"
#include "common/clock.hpp"
#include "common/status.hpp"
#include "common/thread_annotations.hpp"
#include "config/config.hpp"
#include "core/metadata.hpp"
#include "core/persistency.hpp"
#include "core/plugin.hpp"
#include "fault/degrade.hpp"
#include "fault/fault.hpp"
#include "format/pipeline.hpp"
#include "plugin/pipeline.hpp"
#include "shm/event_queue.hpp"
#include "shm/shared_buffer.hpp"

namespace dmr::core {

struct NodeOptions {
  std::string output_dir = "damaris_out";
  std::string file_prefix = "damaris";
  int node_id = 0;
  /// Persist all blocks of an iteration once every client of the shard
  /// has called end_iteration() (the default "write" behaviour).
  bool persist_on_end_iteration = true;
  /// Attach a check::ProtocolChecker to the shared buffer and every
  /// shard queue: block-lifecycle violations (double release,
  /// write-after-publish, leaks, ...) are logged at stop() and counted
  /// in ServerStats::protocol_violations. The checker costs one mutex
  /// per shm operation, so leave this off for benchmarks.
  bool protocol_check = false;

  /// Retry / degraded-mode policies. When set, overrides the
  /// configuration's <resilience> section; the defaults (retries
  /// disabled, no sync/drop fallbacks) reproduce the historical
  /// behaviour exactly.
  std::optional<fault::ResilienceConfig> resilience;

  /// Fault injector to drive this node (not owned; must outlive the
  /// node). When null, the node builds its own injector from the
  /// configuration's <fault> plan (none = fault-free).
  const fault::FaultInjector* injector = nullptr;

  /// End-to-end accounting checker (not owned; must outlive stop()).
  /// The node feeds it client write outcomes, supersessions and
  /// persistency results, and registers the shared buffer for the leak
  /// check.
  check::FaultChecker* fault_checker = nullptr;
};

/// Outcome of one completed iteration on a dedicated core.
struct IterationRecord {
  std::int64_t iteration = 0;
  int shard = 0;
  std::size_t blocks = 0;
  Bytes raw_bytes = 0;
  /// Wall time the dedicated core spent persisting this iteration.
  double write_seconds = 0.0;
  /// Wall time the in-situ plugin chain consumed before persist ran
  /// (0 when no plugins are configured — the plugin-less path).
  double plugin_seconds = 0.0;
  /// False when the persistency write still failed after all retries.
  bool persisted = true;
};

struct ServerStats {
  std::vector<IterationRecord> iterations;
  std::uint64_t messages_handled = 0;
  std::uint64_t events_handled = 0;
  /// Wall time the dedicated cores spent doing work (vs blocked idle),
  /// summed over shards.
  double busy_seconds = 0.0;
  double elapsed_seconds = 0.0;
  int shards = 1;
  /// Shm-protocol violations found by the checker (NodeOptions::
  /// protocol_check); populated at stop().
  std::uint64_t protocol_violations = 0;
  PersistencyStats persistency;

  /// Iterations whose persistency write failed after all retries, and
  /// the first such error (satellite of ISSUE 5: persist failures are
  /// propagated into the results instead of only logged).
  std::uint64_t failed_iterations = 0;
  Status first_error = Status::ok();
  /// Degraded-mode synchronous writes: files written by clients
  /// bypassing the dedicated core, and their raw payload bytes.
  std::uint64_t sync_files = 0;
  Bytes sync_bytes = 0;
  /// Injected dedicated-core crash/restart cycles.
  std::uint64_t crashes = 0;
  /// Injected shard-queue closes, counted once the queue is closed.
  std::uint64_t queue_closes = 0;
  /// Degrade-controller transitions (pressure, escalations, recoveries).
  fault::DegradeStats degrade;

  /// Per-stage wall-clock counters of the node's write path: Ingest is
  /// the client-side shm handoff (allocate + memcpy + notify), Transform
  /// and Storage come from the persistency layer of every shard.
  iopath::PipelineStats stages;

  /// Fraction of time the dedicated cores were idle — the paper's
  /// "spare time" (75%–99% in §IV-C2).
  double spare_fraction() const {
    const double window = elapsed_seconds * shards;
    return window <= 0.0 ? 0.0 : 1.0 - busy_seconds / window;
  }
};

/// Per-client view of write-side costs (what the simulation perceives).
struct ClientStats {
  std::uint64_t writes = 0;
  Bytes bytes_written = 0;
  double write_seconds = 0.0;   // total time spent inside write()/commit()
  std::uint64_t alloc_stalls = 0;  // writes that waited for space (timed out or not)
  /// Degraded-mode outcomes: writes that fell back to the synchronous
  /// path, and writes dropped with accounting (opt-in last resort).
  std::uint64_t sync_writes = 0;
  std::uint64_t dropped_writes = 0;
  Bytes dropped_bytes = 0;
};

class DamarisNode;

/// Lightweight client handle (one per compute core). Copyable; methods
/// are safe to call concurrently from different clients but each client
/// id must be driven by a single thread.
class Client {
 public:
  Client() = default;

  /// df_write: copies `data` into shared memory and notifies the server,
  /// on the calling thread; the caller's buffer is free once it returns.
  /// The variable must be declared in the configuration; `data` must
  /// match its layout size.
  Status write(const std::string& variable, std::int64_t iteration,
               std::span<const std::byte> data);

  /// Variant for dynamically shaped arrays (paper: "arrays that don't
  /// have a static shape"): layout is taken from the config but the
  /// payload size is whatever the caller provides.
  Status write_sized(const std::string& variable, std::int64_t iteration,
                     std::span<const std::byte> data);

  /// dc_alloc: reserves the variable's block in shared memory and
  /// returns a writable view — the simulation computes in place and then
  /// calls commit(), avoiding the extra copy. Fails with
  /// kFailedPrecondition while the same (variable, iteration) is already
  /// allocated and not yet committed.
  Result<std::span<std::byte>> alloc(const std::string& variable,
                                     std::int64_t iteration);

  /// dc_commit: publishes a block previously obtained from alloc(), on
  /// the calling thread.
  Status commit(const std::string& variable, std::int64_t iteration);

  /// df_signal: sends a user-defined event to this client's dedicated
  /// core. Events with scope="global" fire once all clients of the
  /// shard have signalled them.
  Status signal(const std::string& event, std::int64_t iteration);

  /// Declares this client done with `iteration`; when all clients of the
  /// shard have, the shard runs the end-of-iteration behaviour
  /// (persist + free).
  Status end_iteration(std::int64_t iteration);

  /// df_finalize for this client. After the last client of a shard
  /// finalizes, that shard drains and exits.
  Status finalize();

  int id() const { return id_; }
  ClientStats stats() const;

 private:
  friend class DamarisNode;
  Client(DamarisNode* node, int id) : node_(node), id_(id) {}

  DamarisNode* node_ = nullptr;
  int id_ = -1;
};

class DamarisNode {
 public:
  /// The number of dedicated cores (server shards) comes from the
  /// configuration's <dedicated cores="N"/>.
  DamarisNode(config::Config cfg, int num_clients, NodeOptions opts = {});
  ~DamarisNode();

  DamarisNode(const DamarisNode&) = delete;
  DamarisNode& operator=(const DamarisNode&) = delete;

  /// Launches the dedicated-core thread(s). Must be called before
  /// clients write. Fails before any thread starts: with
  /// kInvalidArgument for fewer than one client, kOutOfMemory when the
  /// shared buffer could not be allocated, and kNotFound when a
  /// configured event names an unregistered action or a <plugin> an
  /// unknown type.
  Status start();

  /// Client handle for compute core `id` in [0, num_clients).
  Client client(int id);

  /// Waits for the servers to drain and exit (all clients must have
  /// finalized, otherwise stop() closes the queues and the servers exit
  /// after processing what was already queued).
  Status stop();

  /// Event actions ("write" and "stats" are builtin). Register custom
  /// actions before start().
  PluginRegistry& plugins() { return plugins_; }

  /// The running in-situ chain (nullptr when the configuration declares
  /// no plugins). Plugin instances are safe to inspect after stop().
  plugin::PluginPipeline* block_plugins() { return block_plugins_.get(); }

  /// Per-plugin wall-clock accounting (empty without plugins).
  std::vector<plugin::PluginStats> plugin_stats() const {
    return block_plugins_ ? block_plugins_->stats()
                          : std::vector<plugin::PluginStats>{};
  }

  /// Live degrade-FSM state (kNormal when resilience is unconfigured).
  fault::DegradeMode degrade_mode() const {
    return degrade_ ? degrade_->mode() : fault::DegradeMode::kNormal;
  }

  const config::Config& config() const { return cfg_; }
  int num_clients() const { return num_clients_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  shm::SharedBuffer& buffer() { return *buffer_; }

  ServerStats stats() const;
  ClientStats client_stats(int id) const;

  /// Analytics values published by builtin/stat plugins, keyed by
  /// "<variable>.<stat>" (e.g. "temperature.max").
  std::map<std::string, double> analytics() const;
  void publish_analytic(const std::string& key, double value);

  // --- steering (the "Inline Steering" of the Damaris acronym) ---

  /// Current value of a steerable parameter declared in the
  /// configuration (<parameter name=... value=.../>); nullopt when
  /// undeclared. Thread-safe; clients typically poll it each iteration.
  std::optional<std::string> parameter(const std::string& name) const;
  /// Typed reader: nullopt when undeclared or not parseable.
  std::optional<long long> parameter_int(const std::string& name) const;
  std::optional<double> parameter_double(const std::string& name) const;

  /// Updates a declared parameter (called by plugins or external
  /// steering tools); fails for undeclared names so typos surface.
  Status set_parameter(const std::string& name, const std::string& value);

  /// Injects a user event from *outside* any client — the paper's
  /// "events sent either by the simulation or by external tools". The
  /// action runs once (on shard 0) regardless of the event's scope.
  Status signal_external(const std::string& event, std::int64_t iteration);

 private:
  friend class Client;

  /// One dedicated core: queue + metadata + persistency + its loop
  /// state. All fields except `queue` are touched only by its thread.
  struct Shard {
    Shard(std::string output_dir, std::string prefix, int node_id,
          int shard_id, int num_shards, std::size_t variables, int sources);

    int id;
    int clients = 0;  // clients assigned to this shard
    shm::EventQueue queue;
    MetadataManager metadata;
    PersistencyLayer persistency;
    std::map<std::int64_t, int> end_counts;
    std::map<std::pair<std::uint32_t, std::int64_t>, int> event_counts;
    int finalized_clients = 0;
    std::thread thread;
  };

  /// An interned variable or event name: the id messages carry and, for
  /// a variable, its configured layout (nullptr for events).
  struct NameInfo {
    std::uint32_t id = 0;
    const format::Layout* layout = nullptr;
  };
  using NameTable = std::map<std::string, NameInfo>;

  /// Per-client write-side stats, off the node-wide stats mutex.
  struct ClientState {
    Mutex mutex;
    ClientStats stats DMR_GUARDED_BY(mutex);
  };

  int shard_of(int client) const {
    return client % static_cast<int>(shards_.size());
  }

  void server_main(Shard& shard);
  void handle_message(Shard& shard, const shm::Message& msg);
  void complete_iteration(Shard& shard, std::int64_t iteration);
  void run_event(Shard& shard, const config::EventDecl& decl,
                 std::int64_t iteration, int source);
  void register_builtin_actions();
  /// The plugin view of a published block: its bytes in shared memory.
  plugin::BlockView view_of(const VariableBlock& b) const;
  /// Runs `chain` over `views` on `shard`, publishing into analytics().
  /// A plugin error is logged, never propagated: a broken plugin must
  /// not fail the iteration.
  void run_chain(plugin::PluginPipeline& chain, int shard,
                 std::int64_t iteration,
                 std::span<const plugin::BlockView> views);

  std::uint32_t name_id(const std::string& name) const;  // ~0u if unknown
  /// invalid_argument unless `client` is in [0, num_clients).
  Status check_client(int client) const;
  /// Resolves a variable for a write by `client` with one name-table
  /// lookup; checks the payload against the layout size unless `sized`.
  Result<const NameInfo*> resolve(int client, const std::string& variable,
                                  std::size_t bytes, bool sized) const;

  // --- the write path: plain functions on the calling thread ---

  /// Client::write/write_sized: resolve, then copy_write.
  Status write(int client, const std::string& variable,
               std::int64_t iteration, std::span<const std::byte> data,
               bool sized);
  /// Reserves a block: injected exhaustion, a single probe in a degraded
  /// mode, else a blocking allocate.
  Result<shm::Block> reserve(int client, std::int64_t iteration, Bytes size);
  Result<shm::Block> blocking_allocate(Bytes size, int client);
  /// Copies `data` into a new block and notifies the dedicated core, or
  /// routes through the degrade ladder.
  Status copy_write(int client, std::uint32_t name_id, std::int64_t iteration,
                    std::span<const std::byte> data);
  /// Hands a written block to the client's shard and records it as
  /// published in the fault ledger. A closed queue will never consume
  /// it, so the block is released and false returned.
  bool publish(int client, std::uint32_t name_id, std::int64_t iteration,
               const shm::Block& block);
  void record_write(int client, Bytes bytes, double seconds);
  /// Fallback after `cause` blocked the normal path, applying `mode`.
  Status degraded_write(int client, std::uint32_t name_id,
                        std::int64_t iteration,
                        std::span<const std::byte> data, fault::DegradeMode mode,
                        const Status& cause);
  /// Synchronous passthrough: the client writes its own standalone DH5
  /// file, bypassing the dedicated core (paper §III "write
  /// synchronously" option).
  Status sync_write(int client, std::uint32_t name_id,
                    std::int64_t iteration, std::span<const std::byte> data);

  /// Injected dedicated-core crash/restart at an iteration boundary.
  void maybe_crash(Shard& shard, std::int64_t iteration);
  /// Injected queue close at an iteration boundary (server gone).
  void maybe_close_queue(Shard& shard, std::int64_t iteration);

  config::Config cfg_;
  int num_clients_;
  NodeOptions opts_;

  std::unique_ptr<shm::SharedBuffer> buffer_;
  std::vector<std::unique_ptr<Shard>> shards_;
  PluginRegistry plugins_;

  /// In-situ analytics (DESIGN.md §15): the chain built from the
  /// <plugins> section. The pipeline serializes itself; shard threads
  /// call into it from complete_iteration().
  std::unique_ptr<plugin::PluginPipeline> block_plugins_;

  /// Resolved resilience policy (NodeOptions override or config).
  fault::ResilienceConfig resilience_;
  /// Injector built from the config's <fault> plan when NodeOptions
  /// does not provide one.
  std::unique_ptr<fault::FaultInjector> owned_injector_;
  const fault::FaultInjector* injector_ = nullptr;
  std::unique_ptr<fault::DegradeController> degrade_;
  std::atomic<std::uint64_t> sync_seq_{0};  // sync-write file names

  NameTable ids_;                                    // name -> id + layout
  std::vector<const NameTable::value_type*> names_;  // id -> entry of ids_
  /// id -> the variable's codec chain (empty for events), built once when
  /// the name is interned. Kept beside ids_ rather than in NameInfo: the
  /// name-table nodes every write's resolve() walks keep their size.
  std::vector<format::Pipeline> pipelines_;
  std::uint32_t end_iteration_id_ = 0;  // the reserved "..end_iteration"

  /// Atomic: start() / stop() may be driven from a different thread
  /// than the destructor's final stop() (found by the -Wthread-safety
  /// rollout; previously a plain bool).
  std::atomic<bool> started_{false};

  // pending dc_alloc blocks: (client, name_id, iteration) -> block
  Mutex pending_mutex_;
  std::map<std::tuple<int, std::uint32_t, std::int64_t>, shm::Block>
      pending_allocs_ DMR_GUARDED_BY(pending_mutex_);

  mutable Mutex stats_mutex_;
  ServerStats server_stats_ DMR_GUARDED_BY(stats_mutex_);
  std::map<std::string, double> analytics_ DMR_GUARDED_BY(stats_mutex_);
  WallClock::time_point start_time_;

  mutable Mutex params_mutex_;
  std::map<std::string, std::string> parameters_ DMR_GUARDED_BY(params_mutex_);

  /// One per client, fixed at construction.
  std::vector<std::unique_ptr<ClientState>> clients_;

  // Last member: its destructor detaches from buffer_ and the shard
  // queues, which must still be alive.
  std::unique_ptr<check::ProtocolChecker> checker_;
};

}  // namespace dmr::core
