#include "iopath/metrics.hpp"

namespace dmr::iopath {

const char* stage_name(StageKind k) {
  switch (k) {
    case StageKind::kIngest: return "ingest";
    case StageKind::kTransform: return "transform";
    case StageKind::kSchedule: return "schedule";
    case StageKind::kTransport: return "transport";
    case StageKind::kStorage: return "storage";
  }
  return "?";
}

void StageCounters::add(SimTime s, Bytes in, Bytes out) {
  ++ops;
  seconds += s;
  bytes_in += in;
  bytes_out += out;
}

void StageCounters::merge(const StageCounters& other) {
  ops += other.ops;
  seconds += other.seconds;
  bytes_in += other.bytes_in;
  bytes_out += other.bytes_out;
}

void PipelineStats::merge(const PipelineStats& other) {
  for (int i = 0; i < kNumStageKinds; ++i) stage[i].merge(other.stage[i]);
}

}  // namespace dmr::iopath
