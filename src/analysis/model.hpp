// Whole-tree model for dmr_verify: files grouped into header/impl
// units, per-unit declaration indexes (std::atomic objects, unordered
// containers), a tail-name function index for the transitive
// wall-clock walk, and the machine-readable sync-channel table parsed
// from src/shm/sync_channels.hpp (the same table mc::HbRaceDetector
// links against, so the static and dynamic models cannot drift).
#pragma once

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/source.hpp"

namespace dmr::analysis {

/// Sync-channel table: SyncPoint::Kind enumerators (src/shm/observer.hpp)
/// joined with the X-macro lists in src/shm/sync_channels.hpp.
struct SyncTable {
  std::string table_rel;  ///< "" when no table file exists in the tree
  std::string kinds_rel;  ///< "" when no observer.hpp exists
  int table_line = 1;
  std::vector<std::string> kinds;  ///< enum Kind enumerators, decl order
  std::map<std::string, std::string> kind_channels;  ///< kind -> channel
  std::set<std::string> atomic_channels;

  bool present() const { return !table_rel.empty(); }
  bool has_channel(const std::string& name) const;
};

struct TreeModel {
  std::vector<SourceFile> files;  ///< sorted by rel
  /// unit key -> indices into `files` (header + impl).
  std::map<std::string, std::vector<std::size_t>> units;
  /// unit key -> names of std::atomic objects declared in the unit.
  std::map<std::string, std::set<std::string>> unit_atomics;
  /// unit key -> names of unordered containers declared in the unit.
  std::map<std::string, std::set<std::string>> unit_unordered;
  /// unqualified function name -> indices into `all_fns`.
  std::map<std::string, std::vector<std::size_t>> fn_by_tail;
  /// flat function table: (file index, function index).
  std::vector<std::pair<std::size_t, std::size_t>> all_fns;
  SyncTable sync;

  const SourceFile* find(const std::string& rel_suffix) const;
};

TreeModel build_model(std::vector<SourceFile> files);

/// Names of objects declared with a `std::atomic<...>` type in the
/// stripped text (members, globals, locals — wherever the declarator
/// name follows the template argument list).
std::set<std::string> atomic_decl_names(const std::string& stripped);

/// Names of objects declared with a std::unordered_* container type.
std::set<std::string> unordered_decl_names(const std::string& stripped);

}  // namespace dmr::analysis
