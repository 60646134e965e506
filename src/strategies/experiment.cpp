#include "strategies/experiment.hpp"

#include <algorithm>
#include <cassert>

#include "des/process.hpp"
#include "des/task.hpp"
#include "iopath/stages.hpp"

namespace dmr::strategies {

using iopath::StageKind;

namespace {
/// FUSE copy cost relative to shared memory (paper: ~10x, §V-B).
constexpr double kFuseSlowdown = 10.0;
/// Compute nodes per staging node under Transport::kDedicatedNodes.
constexpr int kComputeNodesPerStaging = 32;
/// Concurrent writers allowed under coordinated scheduling.
constexpr int kCoordinationTokens = 8;
}  // namespace

Experiment::Experiment(const RunConfig& cfg)
    : Experiment(cfg, nullptr, nullptr, nullptr, 0, nullptr, nullptr) {}

Experiment::Experiment(const RunConfig& cfg, des::Engine& eng,
                       cluster::Machine& machine, fs::SimFs& fs,
                       int first_node, TenantControl* control,
                       std::function<void()> on_complete)
    : Experiment(cfg, &eng, &machine, &fs, first_node, control,
                 std::move(on_complete)) {}

Experiment::Experiment(const RunConfig& cfg, des::Engine* eng,
                       cluster::Machine* machine, fs::SimFs* fs,
                       int first_node, TenantControl* control,
                       std::function<void()> on_complete)
    : cfg_(cfg),
      is_damaris_(cfg.kind == StrategyKind::kDamaris),
      transport_(cfg.damaris.transport),
      ded_k_(is_damaris_ && transport_ != Transport::kDedicatedNodes
                 ? cfg.damaris.dedicated_cores_per_node
                 : 0),
      staging_nodes_(is_damaris_ &&
                             transport_ == Transport::kDedicatedNodes
                         ? (cfg.num_nodes + kComputeNodesPerStaging - 1) /
                               kComputeNodesPerStaging
                         : 0),
      owned_eng_(eng != nullptr ? nullptr : std::make_unique<des::Engine>()),
      eng_(eng != nullptr ? eng : owned_eng_.get()),
      owned_machine_(machine != nullptr
                         ? nullptr
                         : std::make_unique<cluster::Machine>(
                               *eng_, cfg.platform,
                               cfg.num_nodes + staging_nodes_, cfg.seed)),
      machine_(machine != nullptr ? machine : owned_machine_.get()),
      owned_fs_(fs != nullptr ? nullptr
                              : std::make_unique<fs::SimFs>(*machine_)),
      fs_(fs != nullptr ? fs : owned_fs_.get()),
      first_node_(first_node),
      control_(control),
      on_complete_(std::move(on_complete)),
      ranks_per_node_(cfg.platform.node.cores - ded_k_),
      world_(*machine_, cfg.num_nodes * ranks_per_node_, ranks_per_node_,
             first_node),
      bytes_per_rank_(cfg.workload.output_bytes_per_rank()),
      num_phases_(cfg.iterations / cfg.workload.write_interval),
      interval_seconds_(cfg.workload.write_interval *
                        cfg.workload.seconds_per_iteration),
      client_pipeline_(*eng_),
      writer_pipeline_(*eng_) {
  assert(!is_damaris_ || transport_ == Transport::kDedicatedNodes ||
         (ded_k_ >= 1 && ded_k_ < cfg.platform.node.cores));
  // Facility mode cannot host staging *nodes* — they would land past the
  // facility's compute nodes, colliding with other tenants.
  assert(owned_machine_ != nullptr ||
         transport_ != Transport::kDedicatedNodes);
  if (cfg_.kind == StrategyKind::kCollectiveIo) {
    collective_ = std::make_unique<simmpi::CollectiveWriter>(world_, *fs_);
  }
  if (is_damaris_) {
    for (int w = 0; w < num_writers(); ++w) {
      channels_.push_back(std::make_unique<des::Channel<PhaseMsg>>(*eng_));
    }
    if (cfg_.damaris.coordinated_scheduling) {
      write_tokens_ =
          std::make_unique<des::Semaphore>(*eng_, kCoordinationTokens);
    }
    if (cfg_.damaris.adaptive_scheduling) {
      slot_controller_ = std::make_unique<sched::AdaptiveSlotController>(
          interval_seconds_ > 0 ? interval_seconds_ : 1.0, num_writers());
    }
  }
  if (cfg_.injector != nullptr) {
    machine_->set_fault_injector(cfg_.injector);
    fs_->set_fault_injector(cfg_.injector);
  }
  rank_finish_.assign(world_.size(), 0.0);
  build_pipelines();
}

RunResult Experiment::run() {
  assert(owned_eng_ != nullptr && "run() drives the owning mode only");
  // Cross-application interference lives for the whole run (generous
  // horizon: compute plus however long the I/O tail may stretch).
  fs_->spawn_interference(cfg_.iterations *
                              cfg_.workload.seconds_per_iteration * 3.0 +
                          3600.0);
  start();
  eng_->run();
  RunResult result = collect();
  result.events_processed = eng_->events_processed();
  return result;
}

void Experiment::start() {
  for (int r = 0; r < world_.size(); ++r) {
    ++live_processes_;
    eng_->spawn(compute_rank(r));
  }
  if (is_damaris_) {
    for (int w = 0; w < num_writers(); ++w) {
      ++live_processes_;
      eng_->spawn(dedicated_writer(w));
    }
  }
}

void Experiment::finish_process() {
  if (--live_processes_ == 0 && on_complete_) on_complete_();
}

// ------------------------------------------------ stage compositions

/// Each strategy is a composition of iopath stages; nothing below
/// branches on compression or scheduling — those are stages (or
/// absent) per the composition built here.
///
///   file-per-process  client: Transform -> Storage
///   collective-io     client: Storage (fused two-phase collective)
///   damaris           client: Ingest (shm / FUSE) or Transport
///                             (dedicated nodes);
///                     writer: Transform -> Schedule -> Storage
void Experiment::build_pipelines() {
  const DamarisOptions& d = cfg_.damaris;
  // Rank and dedicated-core timelines land in separate trace lanes.
  writer_pipeline_.set_trace_entity(trace::EntityType::kWriter);
  switch (cfg_.kind) {
    case StrategyKind::kFilePerProcess:
      // HDF5's gzip filter runs on the compute core, inside the write
      // phase the application is waiting on; one small single-stripe
      // file per process with HDF5-chunk-sized requests.
      client_pipeline_
          .add(std::make_unique<iopath::TransformStage>(
              *eng_, cfg_.fpp_compression))
          .add(std::make_unique<iopath::StorageStage>(
              *fs_, /*stripe_count=*/1, cfg_.fpp_request,
              cfg_.storage_retry, cfg_.seed));
      break;
    case StrategyKind::kCollectiveIo:
      client_pipeline_.add(
          std::make_unique<iopath::CollectiveWriteStage>(*collective_));
      break;
    case StrategyKind::kDamaris:
      if (transport_ == Transport::kDedicatedNodes) {
        client_pipeline_.add(
            std::make_unique<iopath::RemoteTransportStage>(*machine_));
      } else {
        client_pipeline_.add(std::make_unique<iopath::ShmIngestStage>(
            *eng_, transport_ == Transport::kFuse ? kFuseSlowdown : 1.0));
      }
      writer_pipeline_
          .add(std::make_unique<iopath::TransformStage>(*eng_,
                                                        d.compression))
          .add(std::make_unique<iopath::ScheduleStage>(
              *eng_, interval_seconds_ > 0 ? interval_seconds_ : 1.0,
              num_writers(), d.slot_scheduling, write_tokens_.get(),
              slot_controller_.get()))
          .add(std::make_unique<iopath::StorageStage>(
              *fs_, d.file_stripe_count, d.write_request,
              cfg_.storage_retry, cfg_.seed));
      break;
    case StrategyKind::kNoIo:
      break;
  }
}

// --------------------------------------------------- writer topology

int Experiment::num_writers() const {
  return transport_ == Transport::kDedicatedNodes
             ? staging_nodes_
             : cfg_.num_nodes * std::max(ded_k_, 1);
}

/// Writer a compute rank reports to.
int Experiment::writer_of_rank(int rank) const {
  // Slice-local node index (world_.node_of is offset by first_node_).
  const int node = world_.node_of(rank) - first_node_;
  if (transport_ == Transport::kDedicatedNodes) {
    return node / kComputeNodesPerStaging;
  }
  const int local = rank % ranks_per_node_;
  return node * ded_k_ + local % ded_k_;
}

/// Machine node a writer runs on.
int Experiment::writer_node(int writer) const {
  if (transport_ == Transport::kDedicatedNodes) {
    return first_node_ + cfg_.num_nodes + writer;  // a staging node
  }
  return first_node_ + writer / ded_k_;
}

/// Global core index a writer occupies.
int Experiment::writer_core(int writer) const {
  const int cores = cfg_.platform.node.cores;
  if (transport_ == Transport::kDedicatedNodes) {
    return writer_node(writer) * cores;  // core 0 of the staging node
  }
  return writer_node(writer) * cores + cores - 1 - writer % ded_k_;
}

/// How many client messages a writer receives per phase.
int Experiment::writer_clients(int writer) const {
  if (transport_ == Transport::kDedicatedNodes) {
    const int fan = kComputeNodesPerStaging;
    const int first = writer * fan;
    const int count = std::min(fan, cfg_.num_nodes - first);
    return count * ranks_per_node_;
  }
  const int k = writer % ded_k_;
  int n = 0;
  for (int local = 0; local < ranks_per_node_; ++local) {
    if (local % ded_k_ == k) ++n;
  }
  return n;
}

// ------------------------------------------------------------ results

RunResult Experiment::collect() {
  RunResult res;
  res.kind = cfg_.kind;
  res.total_cores =
      (cfg_.num_nodes + staging_nodes_) * cfg_.platform.node.cores;
  res.compute_ranks = world_.size();
  res.nodes = cfg_.num_nodes;
  res.staging_nodes = staging_nodes_;
  res.phases = num_phases_;
  res.rank_write_seconds = rank_write_;
  res.phase_seconds = phase_seconds_;
  res.dedicated_write_seconds = dedicated_write_;
  // Uniform workloads keep the closed-form volume (golden-pinned);
  // imbalanced ones report the mean of what the ranks actually emitted.
  res.bytes_per_phase =
      cfg_.workload.imbalance > 0.0 && num_phases_ > 0
          ? client_bytes_total_ / static_cast<Bytes>(num_phases_)
          : bytes_per_rank_ * world_.size();
  res.stored_bytes_per_phase =
      num_phases_ > 0 && is_damaris_ ? stored_bytes_total_ / num_phases_
                                     : res.bytes_per_phase;
  for (SimTime t : rank_finish_) {
    res.total_runtime = std::max(res.total_runtime, t);
  }
  if (is_damaris_) {
    const double denom = static_cast<double>(num_writers()) *
                         num_phases_ * interval_seconds_;
    // When writes outlast the iteration interval the dedicated cores
    // have no spare time at all (they fall behind); clamp at zero.
    res.dedicated_spare_fraction =
        denom > 0 ? std::max(0.0, 1.0 - dedicated_busy_total_ / denom)
                  : 0.0;
    if (dedicated_write_.count() > 0) {
      res.aggregate_throughput =
          static_cast<double>(res.bytes_per_phase) /
          dedicated_write_.mean();
    }
  } else if (phase_seconds_.count() > 0) {
    // Synchronous strategies: the phase ends when the data is on disk,
    // so the phase duration is the effective transfer window.
    res.aggregate_throughput =
        static_cast<double>(res.bytes_per_phase) / phase_seconds_.mean();
  }
  res.stage_stats = client_pipeline_.stats();
  res.stage_stats.merge(writer_pipeline_.stats());
  res.fs_stats = fs_->stats();
  res.failed_writes = failed_writes_;
  res.storage_retries = storage_retries_;
  res.first_error = first_error_;
  if (slot_controller_) {
    res.schedule_retunes = slot_controller_->phases_completed();
    res.active_slots = slot_controller_->active_slots();
  }
  return res;
}

/// Folds a finished request's fault outcome into the run counters.
void Experiment::note_outcome(const iopath::WriteRequest& req) {
  storage_retries_ += static_cast<std::uint64_t>(req.retries);
  if (!req.status.is_ok()) {
    ++failed_writes_;
    if (first_error_.is_ok()) first_error_ = req.status;
  }
}

bool Experiment::is_write_iteration(int it) const {
  return cfg_.kind != StrategyKind::kNoIo &&
         (it % cfg_.workload.write_interval) == 0;
}

/// Stamps the facility's placement directive onto a Storage-bound
/// request. A null control or a default directive leaves the request
/// untouched (hash placement — the historical timeline).
void Experiment::apply_directive(iopath::WriteRequest& req, int writer) {
  if (control_ == nullptr) return;
  const PlacementDirective dir = control_->writer_directive(writer);
  req.place_first_server = dir.first_server;
  req.place_server_span = dir.server_span;
  req.staging_tier = dir.staging_tier;
}

// ------------------------------------------------------ compute ranks

iopath::WriteRequest Experiment::client_request(int rank, int phase,
                                                Bytes payload,
                                                cluster::Node& node) {
  iopath::WriteRequest req;
  req.source = rank;
  req.core = world_.core_of(rank);
  req.phase = phase;
  req.raw_bytes = payload;
  req.node = &node;
  if (transport_ == Transport::kDedicatedNodes) {
    req.staging = &machine_->node(writer_node(writer_of_rank(rank)));
  }
  if (!is_damaris_) {
    // Synchronous strategies issue storage from the compute cores; the
    // whole tenant shares directive 0.
    apply_directive(req, 0);
  }
  return req;
}

des::Process Experiment::compute_rank(int rank) {
  cluster::Node& node = world_.node_of_rank(rank);
  int phase_index = 0;
  for (int it = 1; it <= cfg_.iterations; ++it) {
    // Computation, perturbed by this node's OS noise, then the halo
    // synchronization that aligns all ranks (paper: "often due to
    // explicit barriers or communication phases, all processes perform
    // I/O at the same time").
    co_await eng_->delay(
        node.noise().compute_time(cfg_.workload.seconds_per_iteration));
    co_await world_.barrier();
    if (!is_write_iteration(it)) continue;

    const SimTime phase_start = eng_->now();
    // Uniform workloads (imbalance == 0) get bytes_per_rank_ exactly;
    // AMR-style ones a seeded per-(rank, phase) payload.
    const Bytes payload =
        cfg_.workload.bytes_for_rank(rank, phase_index, cfg_.seed);
    client_bytes_total_ += payload;
    iopath::WriteRequest req =
        client_request(rank, phase_index, payload, node);
    co_await client_pipeline_.process(req);
    note_outcome(req);
    if (is_damaris_) {
      // The handoff is staged; notify this rank's writer and continue.
      channels_[writer_of_rank(rank)]->send(PhaseMsg{phase_index, payload});
    }
    rank_write_.add(eng_->now() - phase_start);
    if (cfg_.kind == StrategyKind::kFilePerProcess) {
      co_await world_.barrier();  // phase delimited by barriers
    }
    if (rank == 0) {
      phase_seconds_.add(eng_->now() - phase_start);
      if (!is_damaris_ && control_ != nullptr) {
        control_->on_phase_done(
            0, phase_index, eng_->now() - phase_start,
            payload * static_cast<Bytes>(world_.size()));
      }
    }
    ++phase_index;
  }
  rank_finish_[rank] = eng_->now();
  finish_process();
}

// -------------------------------------------------- dedicated writers

des::Process Experiment::dedicated_writer(int writer) {
  const int core = writer_core(writer);
  const int clients = writer_clients(writer);
  for (int phase = 0; phase < num_phases_; ++phase) {
    Bytes total = 0;
    for (int c = 0; c < clients; ++c) {
      const PhaseMsg msg = co_await channels_[writer]->recv();
      total += msg.bytes;
    }
    iopath::WriteRequest req;
    req.source = writer;
    req.core = core;
    req.phase = phase;
    req.raw_bytes = total;
    apply_directive(req, writer);
    co_await writer_pipeline_.process(req);
    note_outcome(req);
    // Busy time excludes the Schedule stage (waiting for a slot or a
    // token is idle time, not work).
    const SimTime wdur = req.seconds(StageKind::kStorage);
    dedicated_write_.add(wdur);
    dedicated_busy_total_ += req.seconds(StageKind::kTransform) + wdur;
    stored_bytes_total_ += req.bytes;
    if (slot_controller_) {
      slot_controller_->observe({writer, phase,
                                 req.seconds(StageKind::kSchedule), wdur,
                                 req.bytes},
                                eng_->now());
    }
    if (control_ != nullptr) {
      control_->on_phase_done(writer, phase, wdur, req.bytes);
    }
  }
  finish_process();
}

}  // namespace dmr::strategies
