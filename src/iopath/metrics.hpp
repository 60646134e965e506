// Per-stage instrumentation: every pipeline keeps a PipelineStats and
// every stage execution lands in the StageCounters of its kind. The
// counters are what RunResult (DES world) and ServerStats (real
// runtime) expose, so a perf trajectory can compare "time in Transform"
// or "bytes into Storage" across PRs. (For per-*event* timelines rather
// than aggregates, the tracing layer of src/trace/ records each stage
// execution as a span.)
//
// Thread-safety: plain counters with no internal synchronization; each
// PipelineStats belongs to one pipeline and is mutated only by the
// thread driving it (a DES engine or one server thread). merge() the
// per-pipeline stats after the workload quiesced.
#pragma once

#include <cstdint>

#include "common/units.hpp"
#include "iopath/stage.hpp"

namespace dmr::iopath {

/// Aggregate counters of one stage kind.
struct StageCounters {
  std::uint64_t ops = 0;
  SimTime seconds = 0.0;
  Bytes bytes_in = 0;
  Bytes bytes_out = 0;

  void add(SimTime s, Bytes in, Bytes out);
  void merge(const StageCounters& other);
};

/// One counter block per stage kind.
struct PipelineStats {
  StageCounters stage[kNumStageKinds];

  StageCounters& of(StageKind k) { return stage[stage_index(k)]; }
  const StageCounters& of(StageKind k) const {
    return stage[stage_index(k)];
  }

  void merge(const PipelineStats& other);
};

}  // namespace dmr::iopath
