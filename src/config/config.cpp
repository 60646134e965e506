#include "config/config.hpp"

#include <cstdlib>

namespace dmr::config {

namespace {

/// Parses "64,16,2" into dims; rejects empties and non-numbers.
Status parse_dimensions(const std::string& s,
                        std::vector<std::uint64_t>& out) {
  out.clear();
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t end = s.find(',', pos);
    if (end == std::string::npos) end = s.size();
    const std::string token = s.substr(pos, end - pos);
    if (token.empty()) return invalid_argument("empty dimension in '" + s + "'");
    char* endp = nullptr;
    const unsigned long long v = std::strtoull(token.c_str(), &endp, 10);
    if (endp == token.c_str() || *endp != '\0' || v == 0) {
      return invalid_argument("bad dimension '" + token + "'");
    }
    out.push_back(v);
    pos = end + 1;
  }
  if (out.empty()) return invalid_argument("no dimensions in '" + s + "'");
  return Status::ok();
}

/// Strict decimal parse ("0.25", "5", "1e-3"); rejects trailing junk.
Status parse_double(const std::string& s, const std::string& what,
                    double& out) {
  char* endp = nullptr;
  const double v = std::strtod(s.c_str(), &endp);
  if (endp == s.c_str() || *endp != '\0') {
    return invalid_argument("bad " + what + " '" + s + "'");
  }
  out = v;
  return Status::ok();
}

Status parse_int(const std::string& s, const std::string& what, int& out) {
  char* endp = nullptr;
  const long v = std::strtol(s.c_str(), &endp, 10);
  if (endp == s.c_str() || *endp != '\0') {
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
  Config cfg;

  if (const XmlNode* buf = root.child("buffer")) {
    if (const std::string* size = buf->attr("size")) {
      char* endp = nullptr;
      const unsigned long long v = std::strtoull(size->c_str(), &endp, 10);
      if (endp == size->c_str() || *endp != '\0' || v == 0) {
        return invalid_argument("bad buffer size '" + *size + "'");
      }
      cfg.buffer_size_ = v;
    }
    const std::string policy = buf->attr_or("policy", "firstfit");
    if (policy != "firstfit" && policy != "partitioned") {
      return invalid_argument("unknown buffer policy '" + policy + "'");
    }
    cfg.buffer_policy_ = policy;
  }

  if (const XmlNode* ded = root.child("dedicated")) {
    const std::string cores = ded->attr_or("cores", "1");
    const int v = std::atoi(cores.c_str());
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
    Status s = parse_dimensions(*dims, decl.layout.dims);
    if (!s.is_ok()) return s;
    decl.fortran_order = n->attr_or("language", "") == "fortran";
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
    decl.plugin = n->attr_or("using", "");
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
      char* endp = nullptr;
      const unsigned long long v = std::strtoull(seed->c_str(), &endp, 10);
      if (endp == seed->c_str() || *endp != '\0' || v == 0) {
        return invalid_argument("bad fault seed '" + *seed + "'");
      }
      cfg.fault_plan_.seed = v;
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

  // <scheduling alpha="0.3" adaptive="false"/> — §IV-D write-scheduling
  // knobs. alpha is validated here, not clamped: a config asking for an
  // out-of-range smoothing factor is a mistake worth surfacing.
  if (const XmlNode* sch = root.child("scheduling")) {
    Status s = Status::ok();
    if (const std::string* a = sch->attr("alpha")) {
      s = parse_double(*a, "scheduling alpha", cfg.scheduling_.alpha);
      if (!s.is_ok()) return s;
      if (!(cfg.scheduling_.alpha > 0.0) || cfg.scheduling_.alpha > 1.0) {
        return invalid_argument("scheduling alpha must be in (0, 1], got '" +
                                *a + "'");
      }
    }
    if (const std::string* a = sch->attr("adaptive")) {
      s = parse_bool(*a, "scheduling adaptive", cfg.scheduling_.adaptive);
      if (!s.is_ok()) return s;
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

  // <monitor enabled="true" socket="/tmp/dmr.sock" interval_ms="100"
  //  slo_p95_ms="50" slo_max_ms="200"/> — the live observability
  // endpoint (DESIGN.md §15).
  if (const XmlNode* mon = root.child("monitor")) {
    MonitorConfig& mc = cfg.monitor_;
    Status s = Status::ok();
    if (const std::string* a = mon->attr("enabled")) {
      s = parse_bool(*a, "monitor enabled", mc.enabled);
      if (!s.is_ok()) return s;
    }
    mc.socket = mon->attr_or("socket", "");
    if (const std::string* a = mon->attr("interval_ms")) {
      s = parse_int(*a, "monitor interval_ms", mc.interval_ms);
      if (!s.is_ok()) return s;
      if (mc.interval_ms < 1) {
        return invalid_argument("monitor interval_ms must be >= 1");
      }
    }
    if (const std::string* a = mon->attr("slo_p95_ms")) {
      s = parse_double(*a, "monitor slo_p95_ms", mc.slo_p95_ms);
      if (!s.is_ok()) return s;
      if (mc.slo_p95_ms < 0.0) {
        return invalid_argument("monitor slo_p95_ms must be >= 0");
      }
    }
    if (const std::string* a = mon->attr("slo_max_ms")) {
      s = parse_double(*a, "monitor slo_max_ms", mc.slo_max_ms);
      if (!s.is_ok()) return s;
      if (mc.slo_max_ms < 0.0) {
        return invalid_argument("monitor slo_max_ms must be >= 0");
      }
    }
    if (mc.enabled && mc.socket.empty()) {
      return invalid_argument("monitor enabled but no socket path given");
    }
  }

  // <facility nodes="16" seed="7">
  //   <mds model="sharded" shards="8" replicas="2"/>
  //   <placement policy="elastic" slo_p95_ms="500" trip="2" clear="3"
  //              staging_gib_s="8" group_servers="8"/>
  //   <tenants>
  //     <tenant id="1" name="cm1-a" arrival="0" nodes="4"
  //             strategy="damaris" iterations="8" slo_p95_ms="400"/>
  //   </tenants>
  // </facility> — the multi-tenant facility (DESIGN.md §16). Structural
  // mistakes (negative arrivals, duplicate ids, unknown policy or
  // strategy names, more replicas than shards) are rejected here.
  if (const XmlNode* fac = root.child("facility")) {
    FacilityConfig& fc = cfg.facility_;
    fc.declared = true;
    Status s = Status::ok();
    if (const std::string* a = fac->attr("nodes")) {
      s = parse_int(*a, "facility nodes", fc.nodes);
      if (!s.is_ok()) return s;
      if (fc.nodes < 1) {
        return invalid_argument("facility nodes must be >= 1");
      }
    }
    if (const std::string* a = fac->attr("seed")) {
      char* endp = nullptr;
      const unsigned long long v = std::strtoull(a->c_str(), &endp, 10);
      if (endp == a->c_str() || *endp != '\0' || v == 0) {
        return invalid_argument("bad facility seed '" + *a + "'");
      }
      fc.seed = v;
    }
    if (const XmlNode* mds = fac->child("mds")) {
      fc.mds_model = mds->attr_or("model", "serialized");
      if (fc.mds_model != "serialized" && fc.mds_model != "sharded") {
        return invalid_argument(
            "facility mds model must be serialized|sharded, got '" +
            fc.mds_model + "'");
      }
      if (const std::string* a = mds->attr("shards")) {
        s = parse_int(*a, "mds shards", fc.mds_shards);
        if (!s.is_ok()) return s;
        if (fc.mds_shards < 1) {
          return invalid_argument("mds shards must be >= 1");
        }
      }
      if (const std::string* a = mds->attr("replicas")) {
        s = parse_int(*a, "mds replicas", fc.mds_replicas);
        if (!s.is_ok()) return s;
        if (fc.mds_replicas < 1) {
          return invalid_argument("mds replicas must be >= 1");
        }
      }
      if (fc.mds_replicas > fc.mds_shards) {
        return invalid_argument(
            "mds replicas (" + std::to_string(fc.mds_replicas) +
            ") must not exceed shards (" + std::to_string(fc.mds_shards) +
            ")");
      }
    }
    if (const XmlNode* place = fac->child("placement")) {
      FacilityPlacementDecl& pd = fc.placement;
      pd.policy = place->attr_or("policy", "static");
      if (pd.policy != "static" && pd.policy != "elastic") {
        return invalid_argument(
            "placement policy must be static|elastic, got '" + pd.policy +
            "'");
      }
      if (const std::string* a = place->attr("slo_p95_ms")) {
        s = parse_double(*a, "placement slo_p95_ms", pd.slo_p95_ms);
        if (!s.is_ok()) return s;
        if (pd.slo_p95_ms < 0.0) {
          return invalid_argument("placement slo_p95_ms must be >= 0");
        }
      }
      if (const std::string* a = place->attr("trip")) {
        s = parse_int(*a, "placement trip", pd.trip);
        if (!s.is_ok()) return s;
        if (pd.trip < 1) {
          return invalid_argument("placement trip must be >= 1");
        }
      }
      if (const std::string* a = place->attr("clear")) {
        s = parse_int(*a, "placement clear", pd.clear);
        if (!s.is_ok()) return s;
        if (pd.clear < 1) {
          return invalid_argument("placement clear must be >= 1");
        }
      }
      if (const std::string* a = place->attr("staging_gib_s")) {
        s = parse_double(*a, "placement staging_gib_s", pd.staging_gib_s);
        if (!s.is_ok()) return s;
        if (pd.staging_gib_s <= 0.0) {
          return invalid_argument("placement staging_gib_s must be > 0");
        }
      }
      if (const std::string* a = place->attr("group_servers")) {
        s = parse_int(*a, "placement group_servers", pd.group_servers);
        if (!s.is_ok()) return s;
        if (pd.group_servers < 1) {
          return invalid_argument("placement group_servers must be >= 1");
        }
      }
    }
    if (const XmlNode* tenants = fac->child("tenants")) {
      for (const XmlNode* n : tenants->children_named("tenant")) {
        FacilityTenantDecl decl;
        const std::string* id = n->attr("id");
        if (!id) return invalid_argument("<tenant> without id");
        s = parse_int(*id, "tenant id", decl.id);
        if (!s.is_ok()) return s;
        if (decl.id < 0) {
          return invalid_argument("tenant id must be >= 0");
        }
        const std::string who = "tenant " + std::to_string(decl.id);
        decl.name = n->attr_or("name", "tenant-" + std::to_string(decl.id));
        if (const std::string* a = n->attr("arrival")) {
          s = parse_double(*a, "tenant arrival", decl.arrival);
          if (!s.is_ok()) return s;
          if (decl.arrival < 0.0) {
            return invalid_argument(who + ": arrival must be >= 0");
          }
        }
        if (const std::string* a = n->attr("nodes")) {
          s = parse_int(*a, "tenant nodes", decl.nodes);
          if (!s.is_ok()) return s;
        }
        if (decl.nodes < 1) {
          return invalid_argument(who + ": nodes must be >= 1");
        }
        if (decl.nodes > fc.nodes) {
          return invalid_argument(
              who + " wants " + std::to_string(decl.nodes) +
              " nodes but the facility has " + std::to_string(fc.nodes));
        }
        decl.strategy = n->attr_or("strategy", "damaris");
        if (decl.strategy != "file-per-process" &&
            decl.strategy != "collective-io" && decl.strategy != "damaris" &&
            decl.strategy != "no-io") {
          return invalid_argument(who + ": unknown strategy '" +
                                  decl.strategy + "'");
        }
        if (const std::string* a = n->attr("iterations")) {
          s = parse_int(*a, "tenant iterations", decl.iterations);
          if (!s.is_ok()) return s;
          if (decl.iterations < 1) {
            return invalid_argument(who + ": iterations must be >= 1");
          }
        }
        if (const std::string* a = n->attr("slo_p95_ms")) {
          s = parse_double(*a, "tenant slo_p95_ms", decl.slo_p95_ms);
          if (!s.is_ok()) return s;
          if (decl.slo_p95_ms < 0.0) {
            return invalid_argument(who + ": slo_p95_ms must be >= 0");
          }
        }
        for (const FacilityTenantDecl& other : fc.tenants) {
          if (other.id == decl.id) {
            return invalid_argument("duplicate tenant id " +
                                    std::to_string(decl.id));
          }
        }
        fc.tenants.push_back(std::move(decl));
      }
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
