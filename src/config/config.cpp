#include "config/config.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <string_view>

namespace dmr::config {

namespace {

/// Strict positive decimal parse: digits only (no sign, space or
/// trailing junk), non-zero and at most 2^64 - 1. strtoull alone reads
/// "-1" as 2^64 - 1.
Status parse_positive_u64(const std::string& s, const std::string& what,
                          std::uint64_t& out) {
  errno = 0;
  char* endp = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &endp, 10);
  if (s.empty() || !std::isdigit(static_cast<unsigned char>(s[0])) ||
      *endp != '\0' || errno == ERANGE || v == 0) {
    return invalid_argument("bad " + what + " '" + s + "'");
  }
  out = v;
  return Status::ok();
}

/// Parses "64,16,2" into dims; rejects empties, non-numbers and a layout
/// whose byte size (elements x `type_size`) does not fit in 64 bits.
Status parse_dimensions(const std::string& s, std::size_t type_size,
                        std::vector<std::uint64_t>& out) {
  out.clear();
  std::uint64_t bytes = type_size;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t end = s.find(',', pos);
    if (end == std::string::npos) end = s.size();
    const std::string token = s.substr(pos, end - pos);
    if (token.empty()) return invalid_argument("empty dimension in '" + s + "'");
    std::uint64_t v = 0;
    Status st = parse_positive_u64(token, "dimension", v);
    if (!st.is_ok()) return st;
    if (v > std::numeric_limits<std::uint64_t>::max() / bytes) {
      return invalid_argument("dimensions '" + s +
                              "' overflow a 64-bit byte size");
    }
    bytes *= v;
    out.push_back(v);
    pos = end + 1;
  }
  if (out.empty()) return invalid_argument("no dimensions in '" + s + "'");
  return Status::ok();
}

/// Strict decimal parse ("0.25", "5", "1e-3"); rejects trailing junk and
/// non-finite values, which every `x < bound` check would let through.
Status parse_double(const std::string& s, const std::string& what,
                    double& out) {
  char* endp = nullptr;
  const double v = std::strtod(s.c_str(), &endp);
  if (endp == s.c_str() || *endp != '\0' || !std::isfinite(v)) {
    return invalid_argument("bad " + what + " '" + s + "'");
  }
  out = v;
  return Status::ok();
}

/// Strict decimal parse into int; rejects trailing junk and values out
/// of int's range instead of narrowing them.
Status parse_int(const std::string& s, const std::string& what, int& out) {
  errno = 0;
  char* endp = nullptr;
  const long v = std::strtol(s.c_str(), &endp, 10);
  if (endp == s.c_str() || *endp != '\0' || errno == ERANGE ||
      v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    return invalid_argument("bad " + what + " '" + s + "'");
  }
  out = static_cast<int>(v);
  return Status::ok();
}

Status parse_bool(const std::string& s, const std::string& what, bool& out) {
  if (s == "true" || s == "1") {
    out = true;
  } else if (s == "false" || s == "0") {
    out = false;
  } else {
    return invalid_argument("bad " + what + " '" + s +
                            "' (expected true/false)");
  }
  return Status::ok();
}

}  // namespace

const LayoutDecl* Config::find_layout(const std::string& name) const {
  auto it = layouts_.find(name);
  return it == layouts_.end() ? nullptr : &it->second;
}

const VariableDecl* Config::find_variable(const std::string& name) const {
  auto it = variables_.find(name);
  return it == variables_.end() ? nullptr : &it->second;
}

const EventDecl* Config::find_event(const std::string& name) const {
  auto it = events_.find(name);
  return it == events_.end() ? nullptr : &it->second;
}

const format::Layout* Config::layout_of(const std::string& variable) const {
  const VariableDecl* v = find_variable(variable);
  if (!v) return nullptr;
  const LayoutDecl* l = find_layout(v->layout_name);
  return l ? &l->layout : nullptr;
}

Result<Config> Config::from_string(const std::string& xml) {
  auto doc = parse_xml(xml);
  if (!doc.is_ok()) return doc.status();
  return from_xml(doc.value());
}

Result<Config> Config::from_file(const std::string& path) {
  auto doc = parse_xml_file(path);
  if (!doc.is_ok()) return doc.status();
  return from_xml(doc.value());
}

Result<Config> Config::from_xml(const XmlNode& root) {
  if (root.name != "damaris") {
    return invalid_argument("root element must be <damaris>, got <" +
                            root.name + ">");
  }
  // An unknown section would otherwise be silently ignored, and a node
  // with a misspelled one would run without the settings it meant to set.
  static constexpr std::string_view kSections[] = {
      "buffer",    "dedicated", "layout",     "variable", "event",
      "parameter", "fault",     "resilience", "plugins"};
  for (const XmlNode& n : root.children) {
    if (std::find(std::begin(kSections), std::end(kSections), n.name) ==
        std::end(kSections)) {
      return invalid_argument("unknown section <" + n.name + "> in <damaris>");
    }
  }
  Config cfg;

  if (const XmlNode* buf = root.child("buffer")) {
    if (const std::string* size = buf->attr("size")) {
      std::uint64_t v = 0;
      Status st = parse_positive_u64(*size, "buffer size", v);
      if (!st.is_ok()) return st;
      cfg.buffer_size_ = v;
    }
    const std::string policy = buf->attr_or("policy", "firstfit");
    if (policy != "firstfit" && policy != "partitioned") {
      return invalid_argument("unknown buffer policy '" + policy + "'");
    }
    cfg.buffer_policy_ = policy;
  }

  if (const XmlNode* ded = root.child("dedicated")) {
    int v = 0;
    Status st = parse_int(ded->attr_or("cores", "1"), "dedicated cores", v);
    if (!st.is_ok()) return st;
    if (v < 1) return invalid_argument("dedicated cores must be >= 1");
    cfg.dedicated_cores_ = v;
  }

  for (const XmlNode* n : root.children_named("layout")) {
    LayoutDecl decl;
    const std::string* name = n->attr("name");
    if (!name) return invalid_argument("<layout> without name");
    decl.name = *name;
    const std::string type = n->attr_or("type", "float32");
    if (!format::parse_datatype(type, decl.layout.type)) {
      return invalid_argument("layout '" + decl.name + "': unknown type '" +
                              type + "'");
    }
    const std::string* dims = n->attr("dimensions");
    if (!dims) {
      return invalid_argument("layout '" + decl.name + "' needs dimensions");
    }
    Status s = parse_dimensions(*dims, format::datatype_size(decl.layout.type),
                                decl.layout.dims);
    if (!s.is_ok()) return s;
    if (!cfg.layouts_.emplace(decl.name, decl).second) {
      return invalid_argument("duplicate layout '" + decl.name + "'");
    }
  }

  for (const XmlNode* n : root.children_named("variable")) {
    VariableDecl decl;
    const std::string* name = n->attr("name");
    if (!name) return invalid_argument("<variable> without name");
    decl.name = *name;
    const std::string* layout = n->attr("layout");
    if (!layout) {
      return invalid_argument("variable '" + decl.name + "' needs a layout");
    }
    decl.layout_name = *layout;
    decl.pipeline = n->attr_or("pipeline", "");
    if (!decl.pipeline.empty() && decl.pipeline != "lossless" &&
        decl.pipeline != "visualization") {
      return invalid_argument("variable '" + decl.name +
                              "': unknown pipeline '" + decl.pipeline + "'");
    }
    if (!cfg.variables_.emplace(decl.name, decl).second) {
      return invalid_argument("duplicate variable '" + decl.name + "'");
    }
  }

  for (const XmlNode* n : root.children_named("event")) {
    EventDecl decl;
    const std::string* name = n->attr("name");
    if (!name) return invalid_argument("<event> without name");
    decl.name = *name;
    decl.action = n->attr_or("action", "");
    if (decl.action.empty()) {
      return invalid_argument("event '" + decl.name + "' needs an action");
    }
    decl.scope = n->attr_or("scope", "local");
    if (decl.scope != "local" && decl.scope != "global") {
      return invalid_argument("event '" + decl.name + "': unknown scope '" +
                              decl.scope + "'");
    }
    if (!cfg.events_.emplace(decl.name, decl).second) {
      return invalid_argument("duplicate event '" + decl.name + "'");
    }
  }

  for (const XmlNode* n : root.children_named("parameter")) {
    ParameterDecl decl;
    const std::string* name = n->attr("name");
    if (!name) return invalid_argument("<parameter> without name");
    decl.name = *name;
    decl.value = n->attr_or("value", "");
    if (decl.value.empty()) {
      return invalid_argument("parameter '" + decl.name +
                              "' needs a value");
    }
    if (!cfg.parameters_.emplace(decl.name, decl).second) {
      return invalid_argument("duplicate parameter '" + decl.name + "'");
    }
  }

  // <fault seed="42"><inject site="storage.write" rate="0.25" at="5"
  // for="2" stall="0.01" factor="4"/></fault> — a seeded, reproducible
  // fault schedule. Malformed rules (unknown sites, negative rates,
  // windows without length) are rejected here, not at injection time.
  if (const XmlNode* fault = root.child("fault")) {
    if (const std::string* seed = fault->attr("seed")) {
      Status st = parse_positive_u64(*seed, "fault seed", cfg.fault_plan_.seed);
      if (!st.is_ok()) return st;
    }
    for (const XmlNode* n : fault->children_named("inject")) {
      fault::FaultSpec spec;
      const std::string* site = n->attr("site");
      if (!site) return invalid_argument("<inject> without site");
      if (!fault::parse_site(*site, spec.site)) {
        return invalid_argument("unknown fault site '" + *site + "'");
      }
      Status s = Status::ok();
      if (const std::string* a = n->attr("rate")) {
        s = parse_double(*a, "fault rate", spec.rate);
        if (!s.is_ok()) return s;
      }
      if (const std::string* a = n->attr("at")) {
        s = parse_double(*a, "fault window start", spec.window_start);
        if (!s.is_ok()) return s;
      }
      if (const std::string* a = n->attr("for")) {
        s = parse_double(*a, "fault window length", spec.window_length);
        if (!s.is_ok()) return s;
      }
      if (const std::string* a = n->attr("stall")) {
        s = parse_double(*a, "fault stall", spec.stall_seconds);
        if (!s.is_ok()) return s;
      }
      if (const std::string* a = n->attr("factor")) {
        s = parse_double(*a, "fault factor", spec.factor);
        if (!s.is_ok()) return s;
      }
      cfg.fault_plan_.faults.push_back(spec);
    }
    if (Status s = cfg.fault_plan_.validate(); !s.is_ok()) return s;
  }

  // <resilience><retry attempts=".."/><degrade sync="true"/></resilience>
  if (const XmlNode* res = root.child("resilience")) {
    if (const XmlNode* retry = res->child("retry")) {
      fault::RetryPolicy& p = cfg.resilience_.retry;
      Status s = Status::ok();
      if (const std::string* a = retry->attr("attempts")) {
        s = parse_int(*a, "retry attempts", p.max_attempts);
        if (!s.is_ok()) return s;
        if (p.max_attempts < 1) {
          return invalid_argument("retry attempts must be >= 1");
        }
      }
      if (const std::string* a = retry->attr("base_delay")) {
        s = parse_double(*a, "retry base_delay", p.base_delay);
        if (!s.is_ok()) return s;
        if (p.base_delay <= 0.0) {
          return invalid_argument("retry base_delay must be > 0");
        }
      }
      if (const std::string* a = retry->attr("max_delay")) {
        s = parse_double(*a, "retry max_delay", p.max_delay);
        if (!s.is_ok()) return s;
        if (p.max_delay < p.base_delay) {
          return invalid_argument("retry max_delay must be >= base_delay");
        }
      }
      if (const std::string* a = retry->attr("deadline")) {
        s = parse_double(*a, "retry deadline", p.deadline);
        if (!s.is_ok()) return s;
        if (p.deadline < 0.0) {
          return invalid_argument("retry deadline must be >= 0");
        }
      }
    }
    if (const XmlNode* deg = res->child("degrade")) {
      fault::DegradePolicy& p = cfg.resilience_.degrade;
      Status s = Status::ok();
      if (const std::string* a = deg->attr("block_timeout_ms")) {
        s = parse_int(*a, "degrade block_timeout_ms", p.block_timeout_ms);
        if (!s.is_ok()) return s;
        if (p.block_timeout_ms < 0) {
          return invalid_argument("degrade block_timeout_ms must be >= 0");
        }
      }
      if (const std::string* a = deg->attr("sync")) {
        s = parse_bool(*a, "degrade sync", p.allow_sync);
        if (!s.is_ok()) return s;
      }
      if (const std::string* a = deg->attr("drop")) {
        s = parse_bool(*a, "degrade drop", p.allow_drop);
        if (!s.is_ok()) return s;
      }
      if (const std::string* a = deg->attr("trip")) {
        s = parse_int(*a, "degrade trip", p.trip_threshold);
        if (!s.is_ok()) return s;
        if (p.trip_threshold < 1) {
          return invalid_argument("degrade trip must be >= 1");
        }
      }
      if (const std::string* a = deg->attr("clear")) {
        s = parse_int(*a, "degrade clear", p.clear_threshold);
        if (!s.is_ok()) return s;
        if (p.clear_threshold < 1) {
          return invalid_argument("degrade clear must be >= 1");
        }
      }
    }
  }

  // <plugins budget_ms="5" on_error="disable">
  //   <plugin name="moments" type="statistics" variables="temperature"/>
  // </plugins> — the in-situ chain run by the dedicated core between
  // publish and persist (DESIGN.md §15). Malformed declarations are
  // rejected here so the node never starts with a half-valid chain.
  if (const XmlNode* plugins = root.child("plugins")) {
    PluginsConfig& pc = cfg.plugins_;
    Status s = Status::ok();
    if (const std::string* a = plugins->attr("budget_ms")) {
      s = parse_double(*a, "plugins budget_ms", pc.budget_ms);
      if (!s.is_ok()) return s;
      if (pc.budget_ms < 0.0) {
        return invalid_argument("plugins budget_ms must be >= 0");
      }
    }
    pc.on_error = plugins->attr_or("on_error", "warn");
    if (pc.on_error != "warn" && pc.on_error != "disable") {
      return invalid_argument("plugins on_error must be warn|disable, got '" +
                              pc.on_error + "'");
    }
    pc.on_overrun = plugins->attr_or("on_overrun", "warn");
    if (pc.on_overrun != "warn" && pc.on_overrun != "disable") {
      return invalid_argument(
          "plugins on_overrun must be warn|disable, got '" + pc.on_overrun +
          "'");
    }
    for (const XmlNode* n : plugins->children_named("plugin")) {
      PluginDecl decl;
      const std::string* name = n->attr("name");
      if (!name || name->empty()) {
        return invalid_argument("<plugin> without name");
      }
      decl.name = *name;
      decl.type = n->attr_or("type", "");
      if (decl.type.empty()) {
        return invalid_argument("plugin '" + decl.name + "' needs a type");
      }
      const std::string vars = n->attr_or("variables", "");
      if (!vars.empty() && vars.back() == ',') {
        return invalid_argument("plugin '" + decl.name +
                                "': empty variable in '" + vars + "'");
      }
      std::size_t pos = 0;
      while (pos < vars.size()) {
        std::size_t end = vars.find(',', pos);
        if (end == std::string::npos) end = vars.size();
        const std::string token = vars.substr(pos, end - pos);
        if (token.empty()) {
          return invalid_argument("plugin '" + decl.name +
                                  "': empty variable in '" + vars + "'");
        }
        decl.variables.push_back(token);
        pos = end + 1;
      }
      if (const std::string* a = n->attr("stride")) {
        s = parse_int(*a, "plugin stride", decl.stride);
        if (!s.is_ok()) return s;
        if (decl.stride < 1) {
          return invalid_argument("plugin '" + decl.name +
                                  "': stride must be >= 1");
        }
      }
      for (const PluginDecl& other : pc.plugins) {
        if (other.name == decl.name) {
          return invalid_argument("duplicate plugin '" + decl.name + "'");
        }
      }
      pc.plugins.push_back(std::move(decl));
    }
  }

  // Cross-reference validation: every variable's layout must exist.
  for (const auto& [vname, var] : cfg.variables_) {
    if (!cfg.find_layout(var.layout_name)) {
      return invalid_argument("variable '" + vname +
                              "' references unknown layout '" +
                              var.layout_name + "'");
    }
  }
  // ... and every plugin variable filter must name a declared variable.
  for (const PluginDecl& p : cfg.plugins_.plugins) {
    for (const std::string& v : p.variables) {
      if (!cfg.find_variable(v)) {
        return invalid_argument("plugin '" + p.name +
                                "' references unknown variable '" + v + "'");
      }
    }
  }
  return cfg;
}

}  // namespace dmr::config
