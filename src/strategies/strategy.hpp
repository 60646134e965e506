// The three I/O approaches of the paper's evaluation, as cluster-scale
// simulations:
//
//   kFilePerProcess  every rank creates its own HDF5-like file (paper
//                    §II-B-a): no inter-process synchronization, but a
//                    create storm at the metadata server and thousands
//                    of interleaved small write streams at the data
//                    servers;
//   kCollectiveIo    two-phase collective write to one shared file
//                    (§II-B-b): synchronized, aggregated, lock-bound;
//   kDamaris         one dedicated core per node (§III): compute ranks
//                    memcpy into shared memory and continue; dedicated
//                    cores write large per-node files asynchronously,
//                    optionally compressing and slot-scheduling (§IV-D);
//   kNoIo            compute only — the C576 baseline of the scalability
//                    factor S = N * C576 / T_N (§IV-C2).
//
// One call to run_strategy() simulates a full CM1-style run (iterations,
// write phases) on a platform preset and returns the metrics the paper's
// figures are built from.
#pragma once

#include <cstdint>

#include "cluster/specs.hpp"
#include "cm1/workload.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "fault/retry.hpp"
#include "fs/sim_fs.hpp"
#include "iopath/compression_model.hpp"
#include "iopath/metrics.hpp"
#include "trace/tracer.hpp"

namespace dmr::strategies {

enum class StrategyKind { kFilePerProcess, kCollectiveIo, kDamaris, kNoIo };

const char* strategy_name(StrategyKind kind);

/// How compute cores hand their data to the dedicated resource — used
/// by the §V-B positioning ablations.
enum class Transport {
  /// The paper's design: one memcpy into node-local shared memory.
  kSharedMemory,
  /// A FUSE mount like the functional-partitioning approach the paper
  /// compares against: every byte crosses the kernel, measured ~10x
  /// slower than shared memory (§V-B).
  kFuse,
  /// PreDatA/active-buffer style dedicated *nodes*: data leaves the
  /// compute node over the NIC and fans into a small set of staging
  /// nodes (one per 32 compute nodes), added on top of the compute
  /// nodes; their cores do not run the simulation.
  kDedicatedNodes,
};

const char* transport_name(Transport t);

struct DamarisOptions {
  /// Dedicated cores per node, symmetric semantics (§V-A): each serves
  /// an equal share of the node's compute cores and writes its own
  /// file. The paper found 1 to be optimal on 12–24 core nodes.
  int dedicated_cores_per_node = 1;

  Transport transport = Transport::kSharedMemory;

  /// Data reduction on the dedicated core (§IV-D): none, lossless (gzip
  /// stand-in, the paper's 1.87x) or visualization (16-bit precision in
  /// front of the lossless chain, ~6x). It costs CPU time at the
  /// model's rate and divides the stored bytes by its ratio.
  iopath::CompressionModel compression;

  /// How the dedicated cores schedule their writes:
  ///  - kSlots: §IV-D local slot scheduling;
  ///  - kAdaptive: trace-fed adaptive slots (sched/adaptive.hpp). An
  ///    online controller retunes slot count/offsets/widths every write
  ///    phase from the observed Schedule-stage waits and Storage-stage
  ///    service times. Uniform static slots until the first full phase
  ///    of observations, so a balanced workload matches kSlots within
  ///    noise while an imbalanced one recovers the throughput static
  ///    slots lose. Its load and interval estimates smooth with
  ///    sched::kDefaultAlpha;
  ///  - kTokens: the §VI future-work extension, *coordinated*
  ///    distributed I/O scheduling. Instead of communication-free local
  ///    slots, the dedicated cores pass eight write tokens among
  ///    themselves, bounding the number of concurrent writers hitting
  ///    the file system.
  iopath::Scheduling scheduling = iopath::Scheduling::kNone;

  /// Request size and stripe count of the per-node files.
  Bytes write_request = 128 * MiB;
  int file_stripe_count = 4;
};

struct RunConfig {
  cluster::PlatformSpec platform;
  cm1::WorkloadModel workload;
  StrategyKind kind = StrategyKind::kFilePerProcess;
  /// Total cores = num_nodes * platform.node.cores; with kDamaris one
  /// core per node is dedicated and the rest compute.
  int num_nodes = 4;
  int iterations = 10;
  std::uint64_t seed = 1;

  DamarisOptions damaris;
  /// Request size used by file-per-process ranks (HDF5-chunk-sized).
  Bytes fpp_request = 1 * MiB;
  /// HDF5 gzip in the file-per-process path (the paper enabled it for
  /// every BluePrint experiment): each *compute core* pays the CPU cost
  /// inside its write phase before shipping the smaller volume — unlike
  /// Damaris, where the same work hides on the dedicated core.
  iopath::CompressionModel fpp_compression;

  /// Optional structured tracing (not owned; null = untraced). The
  /// tracer is installed for the duration of run_strategy() via
  /// trace::ScopedTracer, so DES resources, pipelines and the shm layer
  /// record per-entity timelines in simulated time. Pure observation:
  /// a traced run returns bit-identical results to an untraced one
  /// (pinned by tests/trace_test.cpp).
  trace::Tracer* tracer = nullptr;

  /// Optional fault injector (not owned; null = fault-free, the exact
  /// historical timeline). When set, it is wired into the storage
  /// network, every node NIC and the simulated file system for the
  /// duration of the run.
  const fault::FaultInjector* injector = nullptr;
  /// Retry policy for Storage-stage writes (default: disabled — a
  /// failed write is recorded in the results and not retried).
  fault::RetryPolicy storage_retry;
};

struct RunResult {
  StrategyKind kind{};
  int total_cores = 0;
  int compute_ranks = 0;
  int nodes = 0;
  /// Extra staging nodes allocated by Transport::kDedicatedNodes.
  int staging_nodes = 0;
  int phases = 0;

  /// Simulation-visible per-rank write durations, pooled over phases —
  /// for Damaris this is the shared-memory copy time (the paper's 0.2 s).
  Sample rank_write_seconds;
  /// Barrier-to-barrier duration of each write phase as the application
  /// perceives it (one sample per phase).
  Sample phase_seconds;
  /// Dedicated-core write durations per (node, phase) — Damaris only.
  Sample dedicated_write_seconds;
  /// Fraction of the run the dedicated cores spent idle — Damaris only.
  double dedicated_spare_fraction = 0.0;

  /// Raw bytes emitted per write phase (all ranks).
  Bytes bytes_per_phase = 0;
  /// Bytes that reached the file system per phase (smaller when the
  /// dedicated cores compress).
  Bytes stored_bytes_per_phase = 0;

  /// total time until the last *compute* rank finishes (the application
  /// run time; dedicated cores may still be draining).
  SimTime total_runtime = 0.0;

  /// Paper-style aggregate throughput: raw bytes of a phase divided by
  /// the mean write duration of that phase's writers.
  double aggregate_throughput = 0.0;

  /// Per-stage time/byte counters pooled over the client and writer
  /// pipelines (Ingest/Transport are client-side; Transform, Schedule
  /// and Storage run wherever the strategy places them).
  iopath::PipelineStats stage_stats;

  fs::FsStats fs_stats;

  /// Fault-injection outcomes: write requests whose Storage stage ended
  /// in an error after all retries, retries consumed, and the first
  /// error observed (OK when none).
  std::uint64_t failed_writes = 0;
  std::uint64_t storage_retries = 0;
  Status first_error = Status::ok();

  /// Adaptive scheduling (Scheduling::kAdaptive):
  /// completed controller retunes and the active slot count of the
  /// final plan (0 / 0 when the controller was not enabled).
  int schedule_retunes = 0;
  int active_slots = 0;

  /// DES events the run dispatched (des::Engine::events_processed()).
  /// 0 for a facility tenant, which shares its engine with others.
  std::uint64_t events_processed = 0;
};

/// Runs one simulated experiment.
RunResult run_strategy(const RunConfig& cfg);

/// Scalability factor S = N * C_base / T_N (paper §IV-C2): `c_base` is
/// the no-I/O, no-dedicated-core runtime measured at the base scale
/// (576 cores in the paper); perfect weak scaling gives S = N.
double scalability_factor(int cores, double t_n, double c_base);

}  // namespace dmr::strategies
