// The three dmr_verify rule families (DESIGN.md §13). Each pass walks
// the TreeModel and appends findings; suppression (allowlist) and
// reporting live in analyzer.cpp.
//
//   determinism  det-unordered-sink   unordered-container iteration
//                                     feeding a determinism sink
//                det-pointer-key      pointer-keyed ordered container
//                det-wall-in-sim      wall-clock read reachable from
//                                     simulated-time code
//   atomics      atomic-implicit-order  std::atomic op without an
//                                       explicit memory_order
//                atomic-relaxed-justify relaxed op (allowlist carries
//                                       the justification)
//                sync-channel           acquire/release sites vs the
//                                       src/shm/sync_channels.hpp table
//   project      mutex-annotation     bare std lock type, or a
//                                     dmr::Mutex that guards nothing
//                discarded-status     (void)-cast of a Status/Result call
//                config-doc           config key missing from DESIGN.md
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "analysis/model.hpp"

namespace dmr::analysis {

struct Finding {
  std::string rule;
  std::string file;  ///< path relative to --root
  int line = 0;
  std::string symbol;  ///< offending identifier, when known
  std::string message;
  bool suppressed = false;
};

void run_determinism_rules(const TreeModel& model, std::vector<Finding>& out);
void run_atomics_rules(const TreeModel& model, std::vector<Finding>& out);
/// `design_doc` is the text of <root>/DESIGN.md (nullopt when absent:
/// then every parsed config key is undocumented).
void run_project_rules(const TreeModel& model,
                       const std::optional<std::string>& design_doc,
                       std::vector<Finding>& out);

}  // namespace dmr::analysis
