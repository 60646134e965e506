#include "core/metadata.hpp"

#include <algorithm>
#include <cassert>

namespace dmr::core {

MetadataManager::MetadataManager(std::size_t variables, int sources,
                                 int stride)
    : variables_(variables),
      sources_(static_cast<std::size_t>(sources)),
      stride_(stride) {
  assert(sources >= 0 && stride > 0);
}

std::size_t MetadataManager::slot_of(std::uint32_t variable_id,
                                     int source) const {
  const auto row = static_cast<std::size_t>(source / stride_);
  assert(variable_id < variables_ && source >= 0 && row < sources_);
  return variable_id * sources_ + row;
}

std::optional<VariableBlock> MetadataManager::add(VariableBlock block) {
  const std::size_t index = slot_of(block.variable_id, block.source);
  Table& table = iterations_[block.iteration];
  if (table.empty()) table.resize(variables_ * sources_);
  std::optional<VariableBlock> replaced = std::move(table[index]);
  table[index] = std::move(block);
  return replaced;
}

const VariableBlock* MetadataManager::find(std::uint32_t variable_id,
                                           std::int64_t iteration,
                                           int source) const {
  auto it = iterations_.find(iteration);
  if (it == iterations_.end() || variable_id >= variables_ || source < 0 ||
      static_cast<std::size_t>(source / stride_) >= sources_) {
    return nullptr;
  }
  const std::optional<VariableBlock>& slot =
      it->second[slot_of(variable_id, source)];
  // Clients of other shards map onto this shard's rows too.
  return slot && slot->source == source ? &*slot : nullptr;
}

std::vector<const VariableBlock*> MetadataManager::blocks_of(
    std::int64_t iteration) const {
  std::vector<const VariableBlock*> out;
  auto it = iterations_.find(iteration);
  if (it == iterations_.end()) return out;
  for (const std::optional<VariableBlock>& slot : it->second) {
    if (slot) out.push_back(&*slot);
  }
  return out;
}

std::vector<VariableBlock> MetadataManager::take_iteration(
    std::int64_t iteration) {
  std::vector<VariableBlock> out;
  auto it = iterations_.find(iteration);
  if (it == iterations_.end()) return out;
  for (std::optional<VariableBlock>& slot : it->second) {
    if (slot) out.push_back(std::move(*slot));
  }
  iterations_.erase(it);
  return out;
}

std::vector<std::int64_t> MetadataManager::pending_iterations() const {
  std::vector<std::int64_t> out;
  for (const auto& [iteration, table] : iterations_) out.push_back(iteration);
  return out;
}

std::size_t MetadataManager::total_blocks() const {
  std::size_t total = 0;
  for (const auto& [iteration, table] : iterations_) {
    total += static_cast<std::size_t>(
        std::count_if(table.begin(), table.end(),
                      [](const auto& slot) { return slot.has_value(); }));
  }
  return total;
}

Bytes MetadataManager::total_bytes() const {
  Bytes total = 0;
  for (const auto& [iteration, table] : iterations_) {
    for (const std::optional<VariableBlock>& slot : table) {
      if (slot) total += slot->size;
    }
  }
  return total;
}

}  // namespace dmr::core
