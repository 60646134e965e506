// Project rules: properties of this codebase no off-the-shelf checker
// knows, each provable from one line or one file.
//
//   mutex-annotation  no bare std mutex/condvar/lock type (those fall
//                     out of Clang's -Wthread-safety analysis), and every
//                     dmr::Mutex or dmr::SpinMutex guards something: some
//                     DMR_GUARDED_BY / DMR_PT_GUARDED_BY / DMR_REQUIRES in
//                     its file names it;
//   discarded-status  no `(void)` cast of a call to a function returning
//                     Status / Result<> / Task<Status> — class-level
//                     [[nodiscard]] rejects plain discards, this closes
//                     the cast escape hatch;
//   config-doc        every config key parsed in src/config/ appears in
//                     DESIGN.md.
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "analysis/rules.hpp"

namespace dmr::analysis {

namespace {

void rule_mutex_annotation(const SourceFile& f, std::vector<Finding>& out) {
  if (f.rel == "src/common/thread_annotations.hpp") return;
  static const char* kBare[] = {
      "std::mutex",         "std::recursive_mutex", "std::timed_mutex",
      "std::shared_mutex",  "std::condition_variable",
      "std::condition_variable_any", "std::lock_guard", "std::unique_lock",
      "std::scoped_lock"};
  const std::vector<std::string> lines = split_lines(f.stripped);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    for (const char* tok : kBare) {
      if (lines[i].find(tok) == std::string::npos) continue;
      out.push_back({"mutex-annotation", f.rel, static_cast<int>(i + 1), tok,
                     std::string("bare ") + tok +
                         "; use the annotated dmr::Mutex/MutexLock "
                         "(common/thread_annotations.hpp) so -Wthread-safety "
                         "can see the lock"});
      break;
    }
  }
  static const std::regex kMember(
      "\\b(?:dmr::)?(?:Spin)?Mutex\\s+([A-Za-z_][A-Za-z0-9_]*)\\s*;");
  const std::string& s = f.stripped;
  for (std::sregex_iterator it(s.begin(), s.end(), kMember), end; it != end;
       ++it) {
    const std::string name = (*it)[1].str();
    const bool used =
        s.find("DMR_GUARDED_BY(" + name + ")") != std::string::npos ||
        s.find("DMR_PT_GUARDED_BY(" + name + ")") != std::string::npos ||
        s.find("DMR_REQUIRES(" + name + ")") != std::string::npos ||
        s.find("DMR_REQUIRES(" + name + ",") != std::string::npos;
    if (!used)
      out.push_back({"mutex-annotation", f.rel,
                     line_of_offset(s, static_cast<std::size_t>(it->position())),
                     name,
                     "Mutex member '" + name +
                         "' guards nothing: no DMR_GUARDED_BY/DMR_REQUIRES in "
                         "this file names it"});
  }
}

/// Names of functions declared in headers with a Status, Result<> or
/// Task<Status> return type.
std::set<std::string> status_functions(const TreeModel& m) {
  std::set<std::string> names;
  // Task<Status> covers the DES coroutines: a (void)co_await of one
  // discards the status exactly like a plain call would.
  static const std::regex kDecl(
      "\\b(?:Status|Result<[^;{}]*>|(?:des::)?Task<Status>)\\s+"
      "([A-Za-z_][A-Za-z0-9_]*)\\s*\\(");
  for (const SourceFile& f : m.files) {
    if (!f.is_header) continue;
    for (std::sregex_iterator it(f.stripped.begin(), f.stripped.end(), kDecl),
         end;
         it != end; ++it)
      names.insert((*it)[1].str());
  }
  // Casting the result type itself (constructor-style) is not a call.
  names.erase("Status");
  names.erase("Result");
  return names;
}

void rule_discarded_status(const SourceFile& f,
                           const std::set<std::string>& status_fns,
                           std::vector<Finding>& out) {
  static const std::regex kVoidCast("\\(void\\)\\s*([^;]*)");
  static const std::regex kCall("\\b([A-Za-z_][A-Za-z0-9_]*)\\s*\\(");
  const std::vector<std::string> lines = split_lines(f.stripped);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::smatch m;
    if (!std::regex_search(lines[i], m, kVoidCast)) continue;
    const std::string expr = m[1].str();
    for (std::sregex_iterator it(expr.begin(), expr.end(), kCall), end;
         it != end; ++it) {
      const std::string callee = (*it)[1].str();
      if (status_fns.count(callee) == 0) continue;
      out.push_back({"discarded-status", f.rel, static_cast<int>(i + 1),
                     callee,
                     "(void)-cast discards the Status/Result of '" + callee +
                         "'; handle it or allowlist with a justification"});
      break;
    }
  }
}

/// Keys live in string literals, so this rule scans the raw text (the
/// stripped twin blanks literals out).
void rule_config_doc(const SourceFile& f,
                     const std::optional<std::string>& design_doc,
                     std::vector<Finding>& out) {
  if (f.rel.rfind("src/config/", 0) != 0 || f.is_header) return;
  static const std::regex kKey(
      "\\b(?:child|children_named|attr|attr_or)\\s*\\(\\s*\"([^\"]+)\"");
  std::set<std::string> seen;
  for (std::sregex_iterator it(f.raw.begin(), f.raw.end(), kKey), end;
       it != end; ++it) {
    const std::string key = (*it)[1].str();
    if (!seen.insert(key).second) continue;
    if (design_doc && design_doc->find(key) != std::string::npos) continue;
    out.push_back(
        {"config-doc", f.rel,
         line_of_offset(f.raw, static_cast<std::size_t>(it->position())), key,
         "config key \"" + key +
             "\" is parsed here but never mentioned in DESIGN.md"});
  }
}

}  // namespace

void run_project_rules(const TreeModel& m,
                       const std::optional<std::string>& design_doc,
                       std::vector<Finding>& out) {
  const std::set<std::string> status_fns = status_functions(m);
  for (const SourceFile& f : m.files) {
    rule_mutex_annotation(f, out);
    rule_discarded_status(f, status_fns, out);
    rule_config_doc(f, design_doc, out);
  }
}

}  // namespace dmr::analysis
