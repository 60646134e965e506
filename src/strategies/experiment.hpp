// One simulated application run, as a reusable driver.
//
// Historically this class lived anonymously inside strategy.cpp and was
// only reachable through run_strategy(). The multi-tenant facility
// (src/facility/) needs to run *many* of these concurrently on ONE
// machine, file system and engine, so the driver now has two modes:
//
//   owning    the original behaviour: the Experiment constructs its own
//             engine, machine and SimFs, spawns the interference
//             daemons and drives the engine to completion. Timeline is
//             byte-identical to the pre-refactor code (golden-pinned by
//             tests/pipeline_equivalence_test.cpp).
//   facility  engine/machine/SimFs are borrowed from the facility; the
//             run occupies the node slice [first_node, first_node +
//             num_nodes) and start() spawns its processes at the
//             engine's *current* time (the tenant's admission time).
//             A TenantControl hook lets the facility's placement engine
//             direct storage placement per writer and observe every
//             finished write phase; on_complete fires when the last
//             process of the run finishes.
//
// A facility run with default directives and a no-op control observes
// the exact event timeline of the owning mode — the facility's
// single-tenant parity test depends on it.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "cluster/machine.hpp"
#include "des/channel.hpp"
#include "des/engine.hpp"
#include "des/sync.hpp"
#include "fs/sim_fs.hpp"
#include "iopath/pipeline.hpp"
#include "sched/adaptive.hpp"
#include "simmpi/collective_io.hpp"
#include "simmpi/world.hpp"
#include "strategies/strategy.hpp"

namespace dmr::strategies {

/// Storage placement a facility hands one tenant's writers (ViPIOS-style
/// server-directed placement): a reserved data-server slice and/or a
/// staging-tier burst buffer. Default-constructed = hash placement.
struct PlacementDirective {
  int first_server = -1;
  int server_span = 0;
  des::ServiceQueue* staging_tier = nullptr;
};

/// Facility-side hook into a running experiment. All methods are called
/// from DES coroutines of the experiment's engine; implementations must
/// not block. The default implementation changes nothing about the run.
class TenantControl {
 public:
  virtual ~TenantControl() = default;

  /// Placement for the next Storage-stage request of `writer` (the
  /// dedicated-writer index for Damaris; 0 for the synchronous
  /// strategies, whose ranks share one directive).
  virtual PlacementDirective writer_directive(int writer) {
    (void)writer;
    return {};
  }

  /// One finished write observation: Damaris reports every dedicated
  /// writer's Storage time per phase; the synchronous strategies report
  /// rank 0's barrier-to-barrier phase duration (bytes are the phase's
  /// aggregate payload, approximate for imbalanced workloads).
  virtual void on_phase_done(int writer, int phase, SimTime write_seconds,
                             Bytes bytes) {
    (void)writer, (void)phase, (void)write_seconds, (void)bytes;
  }
};

class Experiment {
 public:
  /// Owning mode — exactly what run_strategy() always did.
  explicit Experiment(const RunConfig& cfg);

  /// Facility mode — run on a borrowed engine/machine/file system,
  /// occupying nodes [first_node, first_node + cfg.num_nodes). The
  /// dedicated-*nodes* transport is not supported here (its staging
  /// nodes live past the compute nodes of an owning machine).
  Experiment(const RunConfig& cfg, des::Engine& eng,
             cluster::Machine& machine, fs::SimFs& fs, int first_node,
             TenantControl* control, std::function<void()> on_complete);

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  /// Owning mode: interference daemons + start() + engine.run().
  RunResult run();

  /// Spawns the run's processes at the engine's current time (facility
  /// admission, or t=0 in owning mode — Engine::spawn schedules the
  /// first step at now()).
  void start();

  /// Gathers the results; valid once every process finished.
  RunResult collect();

  int num_writers() const;

 private:
  /// Notification a compute core drops in its writer's event queue after
  /// the data has been staged (shared memory, FUSE, or remote buffer).
  struct PhaseMsg {
    int phase = 0;
    Bytes bytes = 0;
  };

  Experiment(const RunConfig& cfg, des::Engine* eng,
             cluster::Machine* machine, fs::SimFs* fs, int first_node,
             TenantControl* control, std::function<void()> on_complete);

  void build_pipelines();
  int writer_of_rank(int rank) const;
  int writer_node(int writer) const;
  int writer_core(int writer) const;
  int writer_clients(int writer) const;
  void note_outcome(const iopath::WriteRequest& req);
  bool is_write_iteration(int it) const;
  void apply_directive(iopath::WriteRequest& req, int writer);
  void finish_process();
  iopath::WriteRequest client_request(int rank, int phase, Bytes payload,
                                      cluster::Node& node);
  des::Process compute_rank(int rank);
  des::Process dedicated_writer(int writer);

  RunConfig cfg_;
  bool is_damaris_;
  Transport transport_;
  int ded_k_;          // dedicated cores per compute node (0 for staging)
  int staging_nodes_;  // extra nodes for Transport::kDedicatedNodes

  // Owning mode fills the owned_* slots; facility mode borrows.
  std::unique_ptr<des::Engine> owned_eng_;
  des::Engine* eng_;
  std::unique_ptr<cluster::Machine> owned_machine_;
  cluster::Machine* machine_;
  std::unique_ptr<fs::SimFs> owned_fs_;
  fs::SimFs* fs_;

  int first_node_;
  TenantControl* control_;
  std::function<void()> on_complete_;
  int live_processes_ = 0;

  int ranks_per_node_;
  simmpi::World world_;
  Bytes bytes_per_rank_;
  int num_phases_;
  SimTime interval_seconds_;

  std::unique_ptr<simmpi::CollectiveWriter> collective_;
  std::vector<std::unique_ptr<des::Channel<PhaseMsg>>> channels_;
  std::unique_ptr<des::Semaphore> write_tokens_;
  std::unique_ptr<sched::AdaptiveSlotController> slot_controller_;

  /// What every compute rank runs in a write phase.
  iopath::WritePipeline client_pipeline_;
  /// What every dedicated writer runs per phase (Damaris only).
  iopath::WritePipeline writer_pipeline_;

  Sample rank_write_;
  Sample phase_seconds_;
  Sample dedicated_write_;
  std::vector<SimTime> rank_finish_;
  double dedicated_busy_total_ = 0.0;
  Bytes stored_bytes_total_ = 0;
  Bytes client_bytes_total_ = 0;
  std::uint64_t failed_writes_ = 0;
  std::uint64_t storage_retries_ = 0;
  Status first_error_ = Status::ok();
};

}  // namespace dmr::strategies
