#include "trace/chrome_export.hpp"

#include <cstdio>
#include <map>
#include <set>

#include "common/json_string.hpp"

#include "trace/tracer.hpp"

namespace dmr::trace {

namespace {

std::string fmt_us(double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", seconds * 1e6);
  return buf;
}

int pid_of(EntityType t) { return static_cast<int>(t) + 1; }

void append_event(std::string& out, const TraceEvent& ev) {
  out += "{\"name\": " + json_string(ev.name != nullptr ? ev.name : "");
  out += ", \"cat\": \"" + std::string(category_name(ev.cat)) + "\"";
  switch (ev.kind) {
    case EventKind::kSpan:
      out += ", \"ph\": \"X\", \"dur\": " + fmt_us(ev.dur);
      break;
    case EventKind::kInstant:
      out += ", \"ph\": \"i\", \"s\": \"t\"";
      break;
    case EventKind::kCounter:
      out += ", \"ph\": \"C\"";
      break;
  }
  out += ", \"ts\": " + fmt_us(ev.t);
  out += ", \"pid\": " + std::to_string(pid_of(ev.entity.type));
  out += ", \"tid\": " + std::to_string(ev.entity.index);
  if (ev.kind == EventKind::kCounter) {
    out += ", \"args\": {\"value\": " + std::to_string(ev.bytes) + "}";
  } else {
    out += ", \"args\": {\"bytes\": " + std::to_string(ev.bytes);
    if (ev.phase >= 0) out += ", \"phase\": " + std::to_string(ev.phase);
    out += "}";
  }
  out += "}";
}

}  // namespace

std::string chrome_trace_json(const std::vector<TraceEvent>& events) {
  // Name the lanes first: one metadata block per entity type seen, one
  // per entity. std::set keeps the metadata order deterministic.
  std::set<EntityId> entities;
  for (const TraceEvent& ev : events) entities.insert(ev.entity);

  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  auto emit = [&out, &first](const std::string& line) {
    if (!first) out += ",\n";
    first = false;
    out += "  " + line;
  };

  EntityType last_type{};
  bool have_type = false;
  for (const EntityId& e : entities) {
    if (!have_type || e.type != last_type) {
      emit("{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " +
           std::to_string(pid_of(e.type)) + ", \"tid\": 0, \"args\": " +
           "{\"name\": " + json_string(entity_type_name(e.type)) + "}}");
      last_type = e.type;
      have_type = true;
    }
    emit("{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": " +
         std::to_string(pid_of(e.type)) + ", \"tid\": " +
         std::to_string(e.index) + ", \"args\": {\"name\": " +
         json_string(std::string(entity_lane_name(e.type)) + " " +
                     std::to_string(e.index)) +
         "}}");
  }

  for (const TraceEvent& ev : events) {
    std::string line;
    append_event(line, ev);
    emit(line);
  }
  out += "\n]}\n";
  return out;
}

Status write_chrome_trace(const std::string& path, const Tracer& tracer) {
  const std::string json = chrome_trace_json(tracer.drain());
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return io_error("cannot open " + path + " for writing");
  const std::size_t n = std::fwrite(json.data(), 1, json.size(), f);
  // A buffered write to a full device fails only when fclose flushes.
  const bool closed = std::fclose(f) == 0;
  if (n != json.size() || !closed) return io_error("short write to " + path);
  return Status::ok();
}

}  // namespace dmr::trace
