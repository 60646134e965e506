// Shared declarations of the benchmark binary: run arguments, metric
// values, the workload entry points, and the per-layer probes that call
// one layer's public functions directly on a workload's generated blocks.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "report.hpp"

namespace e2e {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Minimal sizes: every workload in a few seconds (the self-test).
  bool smoke = false;
  /// Scratch directory inside the checkout; each run makes and removes
  /// its own output directory under it.
  std::string work_dir = ".";
};

/// Metric values by name; anything a workload leaves unset prints as 0
/// (a per-layer metric of a layer the workload does not exercise).
using Values = std::map<std::string, double>;

/// The real write path: write-small, ckpt-24m, insitu-lossless.
bool is_real_workload(const std::string& name);
void run_real(const Args& args, Report& report, Values& values,
              SpanRecorder* spans);

/// sim-kraken-9216: the DES at 9216 simulated cores, three strategies.
void run_sim(const Args& args, Report& report, Values& values,
             SpanRecorder* spans);

/// What the layer probes get: one iteration's blocks, as the clients
/// wrote them, and the configuration they were written under.
struct ProbeInput {
  std::vector<std::span<const std::byte>> blocks;
  std::vector<std::uint64_t> dims;  // layout of every block
  std::uint64_t buffer_bytes = 0;
  int clients = 0;
  std::string out_dir;  // exists; probes remove what they write
  bool smoke = false;
};

/// shm: allocate + memcpy + push + pop + deallocate replay at the block
/// size. Sets shm.handoff_us and shm.handoff_gb_s.
void probe_shm(const ProbeInput& in, SpanLane* lane, Values& values);
/// format: crc32, identity and lossless encode, and one DH5 file of the
/// iteration (create, add_encoded, finalize).
void probe_format(const ProbeInput& in, SpanLane* lane, Values& values,
                  Report& report);
/// Host bounds: memcpy at the block size over an array of at least 4x
/// the last-level cache, and write+fdatasync to the output directory.
void probe_rooflines(const ProbeInput& in, Values& values, Report& report);

}  // namespace e2e
