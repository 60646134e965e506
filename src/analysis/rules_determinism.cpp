// Determinism rules: the repo's jitter/equivalence proofs rest on
// bit-identical timelines (check/determinism.cpp digests, golden
// monitor JSON), so anything whose order depends on hash seeds,
// pointer values or the host clock is flagged before it can feed a
// digest, a trace lane, serialized monitor output or a floating-point
// accumulation (FP addition does not commute).
#include <cstddef>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "analysis/rules.hpp"

namespace dmr::analysis {

namespace {

/// Calls whose output is order-sensitive: digests, trace lanes,
/// serialized snapshots, published analytics.
const char* kSinks[] = {"fnv1a",          "digest",         "hash_combine",
                        "record_span",    "record_instant", "record_counter",
                        "to_json",        "publish_analytic", "serialize"};

/// Subsystems that run on simulated time; a wall-clock read reachable
/// from here makes replay depend on the host.
const char* kSimRoots[] = {"src/des/",    "src/strategies/", "src/cm1/",
                           "src/cluster/", "src/fs/",        "src/simmpi/",
                           "src/iopath/", "src/sched/"};

/// Actual wall-clock reads/sleeps (a type mention like std::chrono
/// alone is not a read). Reads through a clock alias are found by
/// wall_clock_aliases() below.
const char* kWallTokens[] = {"wall_now",
                             "steady_clock::now",
                             "system_clock::now",
                             "high_resolution_clock::now",
                             "this_thread::sleep_for",
                             "clock_gettime",
                             "gettimeofday",
                             "timespec_get"};

const char* kSimTokens[] = {"SimTime", "sim_now"};

bool word_at(const std::string& s, std::size_t pos, std::size_t len) {
  if (pos > 0 && is_ident_char(s[pos - 1])) return false;
  const std::size_t end = pos + len;
  return end >= s.size() || !is_ident_char(s[end]);
}

/// Every word-boundary occurrence offset of `name` in `s`.
std::vector<std::size_t> word_occurrences(const std::string& s,
                                          const std::string& name) {
  std::vector<std::size_t> offs;
  for (std::size_t pos = s.find(name); pos != std::string::npos;
       pos = s.find(name, pos + 1))
    if (word_at(s, pos, name.size())) offs.push_back(pos);
  return offs;
}

// --- det-unordered-sink -------------------------------------------------

struct Loop {
  std::string container;
  std::size_t off = 0;      ///< offset of the `for` keyword in the body
  std::size_t body_b = 0;   ///< loop-body extent within fn.body
  std::size_t body_e = 0;
};

/// Trailing identifier of a container expression (`node.queues()` ->
/// queues, `free_by_end_` -> itself).
std::string trailing_identifier(std::string expr) {
  std::size_t e = expr.size();
  auto skip_ws = [&] {
    while (e > 0 && std::isspace(static_cast<unsigned char>(expr[e - 1])))
      --e;
  };
  skip_ws();
  while (e >= 2 && expr[e - 1] == ')' && expr[e - 2] == '(') {
    e -= 2;
    skip_ws();
  }
  std::size_t b = e;
  while (b > 0 && is_ident_char(expr[b - 1])) --b;
  return expr.substr(b, e - b);
}

std::vector<Loop> find_loops(const Function& fn) {
  std::vector<Loop> loops;
  const std::string& b = fn.body;
  for (std::size_t pos = b.find("for"); pos != std::string::npos;
       pos = b.find("for", pos + 1)) {
    if (!word_at(b, pos, 3)) continue;
    std::size_t par = pos + 3;
    while (par < b.size() &&
           std::isspace(static_cast<unsigned char>(b[par])))
      ++par;
    if (par >= b.size() || b[par] != '(') continue;
    const std::size_t close = match_forward(b, par, '(', ')');
    if (close == std::string::npos) continue;
    const std::string head = b.substr(par + 1, close - par - 2);
    std::string container;
    // Range-for: a top-level ':' that is not part of '::'.
    int depth = 0;
    for (std::size_t i = 0; i < head.size(); ++i) {
      const char c = head[i];
      if (c == '(' || c == '<' || c == '[') ++depth;
      else if (c == ')' || c == '>' || c == ']') --depth;
      else if (c == ':' && depth == 0) {
        const bool dbl = (i > 0 && head[i - 1] == ':') ||
                         (i + 1 < head.size() && head[i + 1] == ':');
        if (dbl) { ++i; continue; }
        container = trailing_identifier(head.substr(i + 1));
        break;
      }
    }
    if (container.empty()) {
      static const std::regex kIter(
          "=\\s*([A-Za-z_]\\w*)\\s*\\.\\s*c?begin\\s*\\(");
      std::smatch m;
      if (std::regex_search(head, m, kIter)) container = m[1].str();
    }
    if (container.empty()) continue;
    Loop l;
    l.container = container;
    l.off = pos;
    std::size_t k = close;
    while (k < b.size() && std::isspace(static_cast<unsigned char>(b[k])))
      ++k;
    if (k < b.size() && b[k] == '{') {
      const std::size_t e = match_forward(b, k, '{', '}');
      if (e == std::string::npos) continue;
      l.body_b = k + 1;
      l.body_e = e - 1;
    } else {
      const std::size_t e = b.find(';', k);
      if (e == std::string::npos) continue;
      l.body_b = k;
      l.body_e = e;
    }
    loops.push_back(l);
  }
  return loops;
}

/// Variables written inside the loop body — the taint set that may
/// carry unordered iteration order to a sink later in the function.
std::set<std::string> written_vars(const std::string& body) {
  std::set<std::string> vars;
  static const std::regex kAssign(
      "\\b([A-Za-z_]\\w*)\\s*(?:\\[[^\\]]*\\]\\s*)?"
      "(?:\\+=|-=|\\*=|/=|\\|=|&=|\\^=|=(?!=))");
  for (std::sregex_iterator it(body.begin(), body.end(), kAssign), end;
       it != end; ++it)
    vars.insert((*it)[1].str());
  static const std::regex kMutate(
      "\\b([A-Za-z_]\\w*)\\s*\\.\\s*"
      "(?:push_back|emplace_back|insert|emplace|append)\\s*\\(");
  for (std::sregex_iterator it(body.begin(), body.end(), kMutate), end;
       it != end; ++it)
    vars.insert((*it)[1].str());
  return vars;
}

void rule_unordered_sink(const TreeModel& m, const SourceFile& f,
                         std::vector<Finding>& out) {
  const auto uit = m.unit_unordered.find(f.unit);
  if (uit == m.unit_unordered.end() || uit->second.empty()) return;
  const std::set<std::string>& unordered = uit->second;
  for (const Function& fn : f.functions) {
    for (const Loop& l : find_loops(fn)) {
      if (unordered.count(l.container) == 0) continue;
      const std::string body = fn.body.substr(l.body_b, l.body_e - l.body_b);
      const int line = line_in_body(fn, l.off);
      for (const char* sink : kSinks) {
        bool hit = false;
        for (std::size_t off : word_occurrences(body, sink)) {
          std::size_t k = off + std::string(sink).size();
          while (k < body.size() &&
                 std::isspace(static_cast<unsigned char>(body[k])))
            ++k;
          if (k < body.size() && body[k] == '(') { hit = true; break; }
        }
        if (hit)
          out.push_back(
              {"det-unordered-sink", f.rel, line, l.container,
               "iteration over unordered container '" + l.container +
                   "' feeds determinism sink '" + sink +
                   "' — hash order is seed/pointer dependent; iterate a "
                   "sorted view instead"});
      }
      // FP accumulation inside the loop: addition order changes the sum.
      static const std::regex kAccum("\\b([A-Za-z_]\\w*)\\s*\\+=");
      const std::string ctx = fn.header + fn.body;
      for (std::sregex_iterator it(body.begin(), body.end(), kAccum), end;
           it != end; ++it) {
        const std::string var = (*it)[1].str();
        const std::regex fp_decl("\\b(?:double|float)\\s*&?\\s*" + var +
                                 "\\b");
        if (std::regex_search(ctx, fp_decl) ||
            std::regex_search(f.stripped, fp_decl))
          out.push_back(
              {"det-unordered-sink", f.rel, line, l.container,
               "floating-point accumulation into '" + var +
                   "' inside iteration over unordered container '" +
                   l.container + "' — FP addition does not commute"});
      }
      // Tainted values reaching a sink after the loop.
      const std::set<std::string> tainted = written_vars(body);
      const std::string rest = fn.body.substr(l.body_e);
      for (const char* sink : kSinks) {
        for (std::size_t off : word_occurrences(rest, sink)) {
          std::size_t k = off + std::string(sink).size();
          while (k < rest.size() &&
                 std::isspace(static_cast<unsigned char>(rest[k])))
            ++k;
          if (k >= rest.size() || rest[k] != '(') continue;
          const std::size_t argend = match_forward(rest, k, '(', ')');
          if (argend == std::string::npos) continue;
          const std::string args = rest.substr(k + 1, argend - k - 2);
          for (const std::string& var : tainted) {
            if (!word_occurrences(args, var).empty()) {
              out.push_back(
                  {"det-unordered-sink", f.rel,
                   line_in_body(fn, l.body_e + off), var,
                   "'" + var + "' is written while iterating unordered "
                   "container '" + l.container +
                       "' and later reaches determinism sink '" + sink +
                       "'"});
              break;
            }
          }
        }
      }
    }
  }
}

// --- det-pointer-key ----------------------------------------------------

/// Splits a template-argument list at top-level commas.
std::vector<std::string> split_targs(const std::string& args) {
  std::vector<std::string> out;
  int depth = 0;
  std::string cur;
  for (char c : args) {
    if (c == '<' || c == '(' || c == '[') ++depth;
    else if (c == '>' || c == ')' || c == ']') --depth;
    if (c == ',' && depth == 0) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(cur);
  return out;
}

void rule_pointer_key(const SourceFile& f, std::vector<Finding>& out) {
  static const char* kOrdered[] = {"std::map", "std::set", "std::multimap",
                                   "std::multiset"};
  const std::string& s = f.stripped;
  for (const char* type : kOrdered) {
    const std::string tok = type;
    const bool is_map = tok.find("map") != std::string::npos;
    for (std::size_t pos = s.find(tok); pos != std::string::npos;
         pos = s.find(tok, pos + 1)) {
      if (pos > 0 && is_ident_char(s[pos - 1])) continue;
      std::size_t i = pos + tok.size();
      if (i < s.size() && is_ident_char(s[i])) continue;
      while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i])))
        ++i;
      if (i >= s.size() || s[i] != '<') continue;
      const std::size_t close = match_forward(s, i, '<', '>');
      if (close == std::string::npos) continue;
      const std::vector<std::string> targs =
          split_targs(s.substr(i + 1, close - i - 2));
      if (targs.empty() || targs[0].find('*') == std::string::npos) continue;
      // An explicit comparator opts into a documented ordering.
      const std::size_t comparator_arity = is_map ? 3 : 2;
      if (targs.size() >= comparator_arity) continue;
      out.push_back({"det-pointer-key", f.rel, line_of_offset(s, pos), tok,
                     std::string(type) +
                         " keyed by a raw pointer orders by address — "
                         "nondeterministic across runs; key by a stable id "
                         "or supply a deterministic comparator"});
    }
  }
}

// --- det-wall-in-sim ----------------------------------------------------

const std::set<std::string>& call_keywords() {
  static const std::set<std::string> kw = {
      "if",       "for",        "while",      "switch",   "return",
      "sizeof",   "alignof",    "decltype",   "catch",    "co_await",
      "co_return", "co_yield",  "static_cast", "dynamic_cast",
      "reinterpret_cast", "const_cast", "new", "delete", "throw",
      "noexcept", "assert",     "defined",    "static_assert"};
  return kw;
}

/// Standard container/utility method names: a dotted call with one of
/// these is almost certainly a std type, not a project function that
/// happens to share the tail name.
const std::set<std::string>& std_method_names() {
  static const std::set<std::string> names = {
      "push",    "pop",          "push_back", "pop_back", "push_front",
      "emplace", "emplace_back", "insert",    "erase",    "find",
      "count",   "begin",        "end",       "size",     "empty",
      "clear",   "front",        "back",      "top",      "reserve",
      "resize",  "at",           "get",       "reset",    "release",
      "load",    "store",        "exchange",  "wait",     "swap",
      "lock",    "unlock",       "try_lock",  "str",      "c_str",
      "data",    "append",       "substr",    "notify_one", "notify_all"};
  return names;
}

/// Names declared as a wall clock: `using Clock = std::chrono::
/// steady_clock;` or the typedef spelling. `Clock::now()` is then a
/// wall-clock read the plain tokens above do not match.
std::set<std::string> wall_clock_aliases(const std::string& stripped) {
  static const std::regex kUsing(
      "\\busing\\s+([A-Za-z_]\\w*)\\s*=\\s*(?:::)?(?:\\w+::)*"
      "(?:steady|system|high_resolution)_clock\\s*;");
  static const std::regex kTypedef(
      "\\btypedef\\s+(?:::)?(?:\\w+::)*(?:steady|system|high_resolution)"
      "_clock\\s+([A-Za-z_]\\w*)\\s*;");
  std::set<std::string> names;
  for (const std::regex* re : {&kUsing, &kTypedef})
    for (std::sregex_iterator it(stripped.begin(), stripped.end(), *re), end;
         it != end; ++it)
      names.insert((*it)[1].str());
  return names;
}

struct FnAttrs {
  std::string wall;  ///< first wall read found, else empty
  bool sim = false;
  std::set<std::string> callees;
};

void rule_wall_in_sim(const TreeModel& m, std::vector<Finding>& out) {
  // Collected tree-wide: an alias declared in a header is visible
  // wherever that header is included.
  std::set<std::string> aliases;
  for (const SourceFile& f : m.files)
    aliases.merge(wall_clock_aliases(f.stripped));

  std::vector<FnAttrs> attrs(m.all_fns.size());
  for (std::size_t i = 0; i < m.all_fns.size(); ++i) {
    const auto& [fi, gi] = m.all_fns[i];
    const SourceFile& f = m.files[fi];
    const Function& fn = f.functions[gi];
    const std::string text = fn.header + fn.body;
    for (const char* t : kWallTokens)
      if (text.find(t) != std::string::npos) { attrs[i].wall = t; break; }
    if (attrs[i].wall.empty())
      for (const std::string& alias : aliases)
        if (!word_occurrences(text, alias + "::now").empty()) {
          attrs[i].wall = alias + "::now";
          break;
        }
    bool sim_root = false;
    for (const char* r : kSimRoots)
      if (f.rel.rfind(r, 0) == 0) { sim_root = true; break; }
    attrs[i].sim = sim_root;
    if (!attrs[i].sim)
      for (const char* t : kSimTokens)
        if (text.find(t) != std::string::npos) { attrs[i].sim = true; break; }
    static const std::regex kCall("\\b([A-Za-z_]\\w*)\\s*\\(");
    for (std::sregex_iterator it(fn.body.begin(), fn.body.end(), kCall), end;
         it != end; ++it) {
      const std::string callee = (*it)[1].str();
      if (call_keywords().count(callee) != 0) continue;
      // Method calls on objects of unknown type (obj.f(), p->f()) resolve
      // by tail name only; generic container-method names (queue_.push,
      // v.clear) would hijack the walk into unrelated classes with the
      // same method name, so they are skipped.
      const std::size_t mpos =
          static_cast<std::size_t>(it->position(1));
      std::size_t p = mpos;
      while (p > 0 && std::isspace(static_cast<unsigned char>(fn.body[p - 1])))
        --p;
      const bool via_member =
          (p > 0 && fn.body[p - 1] == '.') ||
          (p > 1 && fn.body[p - 2] == '-' && fn.body[p - 1] == '>');
      if (via_member && std_method_names().count(callee) != 0) continue;
      attrs[i].callees.insert(callee);
    }
  }
  for (std::size_t i = 0; i < m.all_fns.size(); ++i) {
    if (!attrs[i].sim) continue;
    // BFS through uniquely-named callees only (ambiguous names would
    // make the walk guess); depth-capped, path recorded for the report.
    std::vector<std::size_t> queue = {i};
    std::map<std::size_t, std::size_t> parent;
    std::set<std::size_t> visited = {i};
    const std::size_t kMaxDepth = 8;
    std::size_t hit = SIZE_MAX;
    for (std::size_t qi = 0; qi < queue.size() && hit == SIZE_MAX; ++qi) {
      const std::size_t cur = queue[qi];
      if (!attrs[cur].wall.empty()) { hit = cur; break; }
      std::size_t depth = 0;
      for (std::size_t p = cur; parent.count(p) != 0; p = parent[p]) ++depth;
      if (depth >= kMaxDepth) continue;
      for (const std::string& callee : attrs[cur].callees) {
        const auto it = m.fn_by_tail.find(callee);
        if (it == m.fn_by_tail.end() || it->second.size() != 1) continue;
        const std::size_t next = it->second[0];
        if (!visited.insert(next).second) continue;
        parent[next] = cur;
        queue.push_back(next);
      }
    }
    if (hit == SIZE_MAX) continue;
    std::vector<std::size_t> chain;
    for (std::size_t p = hit;; p = parent[p]) {
      chain.push_back(p);
      if (p == i) break;
    }
    std::string path;
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      if (!path.empty()) path += " -> ";
      path += m.files[m.all_fns[*it].first].functions[m.all_fns[*it].second]
                  .name;
    }
    const auto& [fi, gi] = m.all_fns[i];
    out.push_back({"det-wall-in-sim", m.files[fi].rel,
                   m.files[fi].functions[gi].line,
                   m.files[fi].functions[gi].name,
                   "simulated-time function reaches a wall-clock read: " +
                       path + " (" + attrs[hit].wall +
                       ") — replay would depend on the host clock"});
  }
}

}  // namespace

void run_determinism_rules(const TreeModel& m, std::vector<Finding>& out) {
  for (const SourceFile& f : m.files) {
    rule_unordered_sink(m, f, out);
    rule_pointer_key(f, out);
  }
  rule_wall_in_sim(m, out);
}

}  // namespace dmr::analysis
