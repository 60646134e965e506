#include "core/persistency.hpp"

#include <filesystem>

#include "common/clock.hpp"
#include "trace/tracer.hpp"

namespace dmr::core {

namespace {

/// Records a finished persistency step as a wall-clock span
/// (Category::kPersist) on the node's lane: `dur` seconds ending now.
void trace_persist(int node_id, const char* name, double dur,
                   std::uint64_t bytes, std::int64_t iteration) {
  if (trace::Tracer* tr = trace::current();
      tr != nullptr && tr->enabled(trace::Category::kPersist)) {
    tr->record_span({trace::EntityType::kNode,
                     static_cast<std::uint32_t>(node_id)},
                    trace::Category::kPersist, name, tr->wall_now() - dur, dur,
                    bytes, static_cast<std::int32_t>(iteration));
  }
}

}  // namespace

PersistencyLayer::PersistencyLayer(std::string output_dir, std::string prefix,
                                   int node_id)
    : output_dir_(std::move(output_dir)),
      prefix_(std::move(prefix)),
      node_id_(node_id) {}

std::string PersistencyLayer::file_path(std::int64_t iteration) const {
  return output_dir_ + "/" + prefix_ + "_node" + std::to_string(node_id_) +
         "_it" + std::to_string(iteration) + ".dh5";
}

Status PersistencyLayer::write_blocks(
    std::int64_t iteration, const std::vector<VariableBlock>& blocks,
    const shm::SharedBuffer& buffer) {
  const Status s = fault::retry_sync(
      retry_,
      fault::mix_key(static_cast<std::uint64_t>(node_id_),
                     static_cast<std::uint64_t>(iteration)),
      [&](int attempt) -> Status {
        if (injector_ != nullptr &&
            injector_->fires(
                fault::Site::kStorageWrite, static_cast<double>(iteration),
                fault::mix_key(static_cast<std::uint64_t>(iteration),
                               static_cast<std::uint64_t>(attempt)))) {
          return io_error("injected EIO persisting iteration " +
                          std::to_string(iteration) + " (attempt " +
                          std::to_string(attempt) + ")");
        }
        return write_blocks_once(iteration, blocks, buffer);
      },
      [&](int attempt, double delay, const Status& last) {
        (void)delay;
        {
          MutexLock lock(stats_mutex_);
          ++stats_.retries;
        }
        if (trace::Tracer* tr = trace::current();
            tr != nullptr && tr->enabled(trace::Category::kFault)) {
          tr->record_instant({trace::EntityType::kNode,
                              static_cast<std::uint32_t>(node_id_)},
                             trace::Category::kFault, "persist-retry",
                             tr->wall_now(),
                             static_cast<std::uint64_t>(attempt),
                             static_cast<std::int32_t>(iteration));
        }
        (void)last;
      });
  if (!s.is_ok()) {
    MutexLock lock(stats_mutex_);
    ++stats_.failed_writes;
  }
  return s;
}

Status PersistencyLayer::write_blocks_once(
    std::int64_t iteration, const std::vector<VariableBlock>& blocks,
    const shm::SharedBuffer& buffer) {
  std::error_code ec;
  std::filesystem::create_directories(output_dir_, ec);
  if (ec) return io_error("cannot create " + output_dir_);

  auto writer = format::Dh5Writer::create(file_path(iteration));
  if (!writer.is_ok()) return writer.status();

  for (const VariableBlock& b : blocks) {
    format::DatasetInfo info;
    info.name = b.variable;
    info.iteration = b.iteration;
    info.source = b.source;
    if (b.layout != nullptr) info.layout = *b.layout;
    const std::span<const std::byte> raw(buffer.data(b.block), b.size);

    // Transform: run the variable's codec chain (identity encodes are a
    // plain copy, so splitting from the container write is lossless).
    auto t0 = WallClock::now();
    format::EncodedBuffer encoded = b.pipeline != nullptr
                                        ? b.pipeline->encode(raw)
                                        : format::Pipeline().encode(raw);
    double dt = seconds_since(t0);
    {
      MutexLock lock(stats_mutex_);
      stage_stats_.of(iopath::StageKind::kTransform)
          .add(dt, b.size, encoded.data.size());
    }
    trace_persist(node_id_, "transform", dt, b.size, b.iteration);

    // Storage: append the encoded dataset to the container.
    t0 = WallClock::now();
    Status s = writer.value().add_encoded(info, encoded, raw.size());
    dt = seconds_since(t0);
    {
      MutexLock lock(stats_mutex_);
      stage_stats_.of(iopath::StageKind::kStorage)
          .add(dt, encoded.data.size(), encoded.data.size());
    }
    trace_persist(node_id_, "storage", dt, encoded.data.size(), b.iteration);
    if (!s.is_ok()) return s;
    MutexLock lock(stats_mutex_);
    ++stats_.datasets_written;
  }
  {
    MutexLock lock(stats_mutex_);
    stats_.raw_bytes += writer.value().raw_bytes();
    stats_.stored_bytes += writer.value().stored_bytes();
  }
  const auto t0 = WallClock::now();
  Status s = writer.value().finalize();
  const double dt = seconds_since(t0);
  {
    MutexLock lock(stats_mutex_);
    stage_stats_.of(iopath::StageKind::kStorage).add(dt, 0, 0);
  }
  trace_persist(node_id_, "finalize", dt, 0, iteration);
  if (!s.is_ok()) return s;
  MutexLock lock(stats_mutex_);
  ++stats_.files_written;
  return Status::ok();
}

}  // namespace dmr::core
