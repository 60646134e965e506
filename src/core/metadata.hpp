// Server-side metadata system (paper §III-B "Metadata management").
//
// Every block written by a client is characterized by the tuple
// ⟨name, iteration, source, layout⟩. The event processing engine adds an
// entry on each write-notification; data stays in shared memory until
// actions consume it.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string_view>
#include <vector>

#include "format/pipeline.hpp"
#include "format/types.hpp"
#include "shm/shared_buffer.hpp"

namespace dmr::core {

/// One written block, as tracked by the dedicated core.
struct VariableBlock {
  /// Views the node's interned name table, which outlives every block.
  std::string_view variable;
  /// Dense variable id; the node assigns them in name order.
  std::uint32_t variable_id = 0;
  std::int64_t iteration = 0;
  int source = -1;  // client id
  shm::Block block;
  /// The variable's configured layout (owned by the node's config);
  /// nullptr when the block was recorded without one.
  const format::Layout* layout = nullptr;
  /// The variable's codec chain (owned by the node's name table);
  /// nullptr persists the block raw.
  const format::Pipeline* pipeline = nullptr;
  /// Actual payload size (== layout->byte_size() for static layouts;
  /// smaller/larger for dynamically shaped arrays).
  Bytes size = 0;
};

/// Owned by the server thread; not thread-safe by design (all access is
/// from the event processing engine).
///
/// Each pending iteration keeps its blocks in a dense table indexed by
/// (variable id, source), so recording a block is one slot store and a
/// scan of the table yields (variable, source) order.
class MetadataManager {
 public:
  /// Sizes each iteration's table for variable ids below `variables` and
  /// `sources` rows, client c taking row c / `stride`. A node with k
  /// shards passes stride k: shard s serves the clients with c % k == s.
  MetadataManager(std::size_t variables, int sources, int stride);

  /// Records a block; its variable id and source must fit the table.
  /// Duplicate tuples are replaced (a client may rewrite a variable
  /// within an iteration); the replaced block is returned so the caller
  /// can free its shared memory.
  std::optional<VariableBlock> add(VariableBlock block);

  /// Finds a specific block (nullptr if absent).
  const VariableBlock* find(std::uint32_t variable_id, std::int64_t iteration,
                            int source) const;

  /// All blocks of one iteration, ordered by (variable, source).
  std::vector<const VariableBlock*> blocks_of(std::int64_t iteration) const;

  /// Removes and returns all blocks of an iteration, ordered by
  /// (variable, source) (the persistency layer takes ownership and frees
  /// the shared memory afterwards).
  std::vector<VariableBlock> take_iteration(std::int64_t iteration);

  /// Iterations currently holding data, ascending.
  std::vector<std::int64_t> pending_iterations() const;

  std::size_t total_blocks() const;
  Bytes total_bytes() const;

 private:
  using Table = std::vector<std::optional<VariableBlock>>;

  /// Index of (variable_id, source) in a Table.
  std::size_t slot_of(std::uint32_t variable_id, int source) const;

  const std::size_t variables_;
  const std::size_t sources_;
  const int stride_;
  std::map<std::int64_t, Table> iterations_;
};

}  // namespace dmr::core
