// dmr_verify driver: collects the file set (compile_commands.json plus
// a recursive src/ header scan, and DESIGN.md for config-doc), runs the
// three rule families, applies the allowlist, and reports. A whole-run
// result cache keyed on each file's (mtime, size, content hash) makes
// the no-change re-run — the common CI case — cost only file stats; the
// allowlist is applied after the cache so editing a justification never
// invalidates it.
#pragma once

#include <string>

namespace dmr::analysis {

struct Options {
  std::string root = ".";
  std::string compdb;     ///< optional compile_commands.json
  std::string allowlist;  ///< defaults to root/tools/dmr_verify/allowlist.txt
  std::string json_out;   ///< optional machine-readable findings
  std::string cache;      ///< optional cache file (build/dmr_verify.cache)
  bool verbose = false;
};

/// Runs the analyzer; returns the process exit code
/// (0 clean, 1 unsuppressed findings, 2 usage/IO error).
int run_analyzer(const Options& opt);

}  // namespace dmr::analysis
