// Chrome trace_event JSON exporter.
//
// Serializes a drained event stream into the Trace Event Format
// consumed by Perfetto and chrome://tracing: one "process" per entity
// type (ranks, dedicated writers, fs servers, ...), one "thread" lane
// per entity, spans as complete ("X") events, instants as "i", counters
// as "C". Timestamps convert seconds → microseconds. The output is a
// pure function of the event stream (fixed formatting, sorted metadata),
// so a deterministic workload exports byte-identical JSON — which is
// what the golden-file test in tests/trace_test.cpp pins.
//
// Thread-safety: free functions over an already-drained snapshot; no
// shared state.
#pragma once

#include <string>
#include <vector>

#include "common/status.hpp"
#include "trace/event.hpp"

namespace dmr::trace {

class Tracer;

/// Renders the event stream as a Chrome trace JSON document.
std::string chrome_trace_json(const std::vector<TraceEvent>& events);

/// Drains `tracer` and writes the JSON to `path`; an io_error when the
/// file cannot be opened, written or closed.
Status write_chrome_trace(const std::string& path, const Tracer& tracer);

}  // namespace dmr::trace
