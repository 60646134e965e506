// dmr_verify — the project's static analyzer.
//
// Three rule families over the whole tree (src/analysis/ holds the
// implementation; DESIGN.md §13 the semantics):
//
//   determinism   det-unordered-sink, det-pointer-key, det-wall-in-sim
//   atomics       atomic-implicit-order, atomic-relaxed-justify,
//                 sync-channel (vs src/shm/sync_channels.hpp)
//   project       mutex-annotation, discarded-status, config-doc
//                 (vs <root>/DESIGN.md)
//
// Findings are suppressed only by tools/dmr_verify/allowlist.txt
// entries of the form `rule path[:symbol]  # justification`; an entry
// without a justification is itself a finding, unused entries warn.
// Exit 0 = clean, 1 = unsuppressed findings, 2 = usage/IO error.
#include <iostream>
#include <string>

#include "analysis/analyzer.hpp"

namespace {

int usage() {
  std::cerr
      << "usage: dmr_verify [--root DIR] [--compdb FILE] [--allowlist FILE]\n"
         "                  [--json FILE] [--cache FILE] [--verbose]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  dmr::analysis::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--root") { if (const char* v = next()) opt.root = v; else return usage(); }
    else if (a == "--compdb") { if (const char* v = next()) opt.compdb = v; else return usage(); }
    else if (a == "--allowlist") { if (const char* v = next()) opt.allowlist = v; else return usage(); }
    else if (a == "--json") { if (const char* v = next()) opt.json_out = v; else return usage(); }
    else if (a == "--cache") { if (const char* v = next()) opt.cache = v; else return usage(); }
    else if (a == "--verbose") opt.verbose = true;
    else return usage();
  }
  return dmr::analysis::run_analyzer(opt);
}
