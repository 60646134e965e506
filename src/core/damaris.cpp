#include "core/damaris.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "common/log.hpp"
#include "iopath/compression_model.hpp"
#include "plugin/builtin.hpp"
#include "trace/tracer.hpp"

namespace dmr::core {

namespace {

shm::AllocPolicy policy_from(const config::Config& cfg) {
  return cfg.buffer_policy() == "partitioned"
             ? shm::AllocPolicy::kPartitioned
             : shm::AllocPolicy::kMutexFirstFit;
}

/// Fault-category instant on the node's lane (no-op when untraced).
void trace_fault(int node_id, const char* name, std::int64_t iteration) {
  if (trace::Tracer* tr = trace::current();
      tr != nullptr && tr->enabled(trace::Category::kFault)) {
    tr->record_instant({trace::EntityType::kNode,
                        static_cast<std::uint32_t>(node_id)},
                       trace::Category::kFault, name, tr->wall_now(), 0,
                       static_cast<std::int32_t>(iteration));
  }
}

}  // namespace

DamarisNode::Shard::Shard(std::string output_dir, std::string prefix,
                          int node_id, int shard_id, int num_shards,
                          std::size_t variables, int sources)
    : id(shard_id),
      // Shard s serves the clients c with c % num_shards == s.
      metadata(variables, (sources + num_shards - 1) / num_shards, num_shards),
      persistency(std::move(output_dir),
                  num_shards > 1 ? prefix + "_s" + std::to_string(shard_id)
                                 : std::move(prefix),
                  node_id) {}

DamarisNode::DamarisNode(config::Config cfg, int num_clients,
                         NodeOptions opts)
    : cfg_(std::move(cfg)),
      num_clients_(num_clients),
      opts_(std::move(opts)),
      buffer_(std::make_unique<shm::SharedBuffer>(
          cfg_.buffer_size(), policy_from(cfg_), num_clients)) {
  // One server shard per configured dedicated core; never more shards
  // than clients.
  const int shards =
      std::clamp(cfg_.dedicated_cores(), 1, std::max(1, num_clients_));
  for (int s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(
        opts_.output_dir, opts_.file_prefix, opts_.node_id, s, shards,
        cfg_.variables().size(), std::max(num_clients_, 0)));
  }
  clients_.reserve(static_cast<std::size_t>(std::max(num_clients_, 0)));
  for (int c = 0; c < num_clients_; ++c) {
    ++shards_[shard_of(c)]->clients;
    clients_.push_back(std::make_unique<ClientState>());
  }

  // Intern all configured names. Variables come first, in name order,
  // so their ids sort like their names (the metadata tables rely on it).
  const auto intern = [this](const std::string& name,
                             const format::Layout* layout,
                             format::Pipeline pipeline) {
    auto [it, added] = ids_.try_emplace(
        name, NameInfo{static_cast<std::uint32_t>(names_.size()), layout});
    if (added) {
      names_.push_back(&*it);
      pipelines_.push_back(std::move(pipeline));
    }
    return it->second.id;
  };
  for (const auto& [name, var] : cfg_.variables()) {
    const config::LayoutDecl* decl = cfg_.find_layout(var.layout_name);
    intern(name, decl != nullptr ? &decl->layout : nullptr,
           iopath::CompressionModel::for_pipeline_name(var.pipeline)
               .codec_pipeline());
  }
  for (const auto& [name, ev] : cfg_.events()) intern(name, nullptr, {});
  // Reserved internal event driving iteration completion.
  end_iteration_id_ = intern("..end_iteration", nullptr, {});
  // Steerable parameters start at their configured values.
  for (const auto& [name, decl] : cfg_.parameters()) {
    parameters_.emplace(name, decl.value);
  }
  register_builtin_actions();
  server_stats_.shards = shards;

  // Resilience policy: explicit NodeOptions override wins, else the
  // configuration's <resilience> section (defaults reproduce the
  // historical behaviour: no retries, no fallbacks).
  resilience_ = opts_.resilience ? *opts_.resilience : cfg_.resilience();
  // Fault injector: explicit NodeOptions override wins, else build one
  // from the configuration's <fault> plan (none = fault-free).
  if (opts_.injector != nullptr) {
    injector_ = opts_.injector;
  } else if (!cfg_.fault_plan().empty()) {
    owned_injector_ = std::make_unique<fault::FaultInjector>(cfg_.fault_plan());
    injector_ = owned_injector_.get();
  }
  buffer_->set_fault_injector(injector_);
  degrade_ = std::make_unique<fault::DegradeController>(resilience_.degrade,
                                                        opts_.node_id);
  for (auto& shard : shards_) {
    shard->persistency.set_resilience(resilience_.retry);
    shard->persistency.set_fault_injector(injector_);
  }
  if (opts_.fault_checker != nullptr) opts_.fault_checker->watch(*buffer_);

  if (opts_.protocol_check) {
    checker_ = std::make_unique<check::ProtocolChecker>();
    checker_->observe(*buffer_);
    for (auto& shard : shards_) checker_->observe(shard->queue);
  }
}

DamarisNode::~DamarisNode() {
  if (started_.load(std::memory_order_acquire)) {
    for (auto& shard : shards_) shard->queue.close();
    for (auto& shard : shards_) {
      if (shard->thread.joinable()) shard->thread.join();
    }
  }
}

std::uint32_t DamarisNode::name_id(const std::string& name) const {
  auto it = ids_.find(name);
  return it == ids_.end() ? ~0u : it->second.id;
}

Status DamarisNode::check_client(int client) const {
  if (client < 0 || client >= num_clients_) {
    return invalid_argument("client id " + std::to_string(client) +
                            " out of range");
  }
  return Status::ok();
}

Result<const DamarisNode::NameInfo*> DamarisNode::resolve(
    int client, const std::string& variable, std::size_t bytes,
    bool sized) const {
  if (Status st = check_client(client); !st.is_ok()) return st;
  auto it = ids_.find(variable);
  if (it == ids_.end() || it->second.layout == nullptr) {
    return not_found("variable '" + variable + "' not configured");
  }
  if (!sized && bytes != it->second.layout->byte_size()) {
    return invalid_argument("variable '" + variable + "': payload is " +
                            std::to_string(bytes) + " bytes, layout " +
                            std::to_string(it->second.layout->byte_size()));
  }
  return &it->second;
}

Status DamarisNode::start() {
  if (started_.load(std::memory_order_acquire))
    return failed_precondition("node already started");
  if (num_clients_ < 1) {
    return invalid_argument("node has " + std::to_string(num_clients_) +
                            " clients; it needs at least one");
  }
  if (buffer_->capacity() == 0) {
    return out_of_memory("cannot allocate the " +
                         std::to_string(cfg_.buffer_size()) +
                         "-byte shared buffer");
  }
  // Bind every event to its action and instantiate the <plugins> in-situ
  // chain before any shard thread exists: a bad declaration fails
  // start() instead of surfacing mid-run. The chain is rebuilt on every
  // start so a restarted node gets fresh accounting.
  for (const auto& [name, decl] : cfg_.events()) {
    if (plugins_.find(decl.action) == nullptr) {
      return not_found("event '" + name + "': action '" + decl.action +
                       "' is not registered");
    }
  }
  if (!cfg_.plugins().empty()) {
    auto pipeline = plugin::build_pipeline(cfg_.plugins());
    if (!pipeline.is_ok()) return pipeline.status();
    block_plugins_ = std::move(pipeline).value();
  } else {
    block_plugins_.reset();
  }
  started_.store(true, std::memory_order_release);
  start_time_ = WallClock::now();
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    s->thread = std::thread([this, s] { server_main(*s); });
  }
  return Status::ok();
}

Client DamarisNode::client(int id) { return Client(this, id); }

Status DamarisNode::stop() {
  if (!started_.load(std::memory_order_acquire))
    return failed_precondition("node not started");
  for (auto& shard : shards_) shard->queue.close();
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  started_.store(false, std::memory_order_release);
  if (checker_) {
    const auto violations = checker_->finalize();
    for (const auto& v : violations) {
      DMR_LOG(kError, "damaris") << "shm protocol: " << v.to_string();
    }
    MutexLock lock(stats_mutex_);
    server_stats_.protocol_violations = violations.size();
  }
  return Status::ok();
}

ServerStats DamarisNode::stats() const {
  ServerStats s;
  {
    MutexLock lock(stats_mutex_);
    s = server_stats_;
  }
  for (const auto& shard : shards_) {
    // PersistencyStats are only mutated by the shard's (now idle or
    // joined) thread; summing here is fine for monitoring purposes.
    const auto& p = shard->persistency.stats();
    s.persistency.files_written += p.files_written;
    s.persistency.datasets_written += p.datasets_written;
    s.persistency.raw_bytes += p.raw_bytes;
    s.persistency.stored_bytes += p.stored_bytes;
    s.persistency.retries += p.retries;
    s.persistency.failed_writes += p.failed_writes;
    s.stages.merge(shard->persistency.stage_stats());
  }
  s.degrade = degrade_->stats();
  // Ingest is what the clients paid to hand their data over.
  for (int id = 0; id < num_clients_; ++id) {
    const ClientStats c = client_stats(id);
    iopath::StageCounters& ingest = s.stages.of(iopath::StageKind::kIngest);
    ingest.ops += c.writes;
    ingest.seconds += c.write_seconds;
    ingest.max_seconds = std::max(ingest.max_seconds, c.max_write_seconds);
    ingest.bytes_in += c.bytes_written;
    ingest.bytes_out += c.bytes_written;
  }
  return s;
}

ClientStats DamarisNode::client_stats(int id) const {
  ClientState& state = *clients_.at(static_cast<std::size_t>(id));
  MutexLock lock(state.mutex);
  return state.stats;
}

std::map<std::string, double> DamarisNode::analytics() const {
  MutexLock lock(stats_mutex_);
  return analytics_;
}

void DamarisNode::publish_analytic(const std::string& key, double value) {
  MutexLock lock(stats_mutex_);
  analytics_[key] = value;
}

std::optional<std::string> DamarisNode::parameter(
    const std::string& name) const {
  MutexLock lock(params_mutex_);
  auto it = parameters_.find(name);
  if (it == parameters_.end()) return std::nullopt;
  return it->second;
}

std::optional<long long> DamarisNode::parameter_int(
    const std::string& name) const {
  auto v = parameter(name);
  if (!v) return std::nullopt;
  char* end = nullptr;
  const long long out = std::strtoll(v->c_str(), &end, 10);
  if (end == v->c_str() || *end != '\0') return std::nullopt;
  return out;
}

std::optional<double> DamarisNode::parameter_double(
    const std::string& name) const {
  auto v = parameter(name);
  if (!v) return std::nullopt;
  char* end = nullptr;
  const double out = std::strtod(v->c_str(), &end);
  if (end == v->c_str() || *end != '\0') return std::nullopt;
  return out;
}

Status DamarisNode::set_parameter(const std::string& name,
                                  const std::string& value) {
  MutexLock lock(params_mutex_);
  auto it = parameters_.find(name);
  if (it == parameters_.end()) {
    return not_found("parameter '" + name + "' not declared");
  }
  it->second = value;
  return Status::ok();
}

Status DamarisNode::signal_external(const std::string& event,
                                    std::int64_t iteration) {
  const std::uint32_t id = name_id(event);
  if (id == ~0u || !cfg_.find_event(event)) {
    return not_found("event '" + event + "' not configured");
  }
  shm::Message msg;
  msg.type = shm::MessageType::kUserEvent;
  msg.client_id = -1;  // external tool, not a client
  msg.iteration = iteration;
  msg.name_id = id;
  if (!shards_[0]->queue.push(msg)) {
    return resource_busy("event '" + event +
                         "' dropped: server queue already closed");
  }
  return Status::ok();
}

// ---------------------------------------------------------------- server

void DamarisNode::server_main(Shard& shard) {
  // One queue-lock acquisition and one stats update per batch: every
  // message queued since the last wake-up is handled in FIFO order.
  std::deque<shm::Message> batch;
  while (shard.queue.pop_all(batch)) {
    const auto t0 = WallClock::now();
    for (const shm::Message& msg : batch) handle_message(shard, msg);
    const double dt = seconds_since(t0);
    MutexLock lock(stats_mutex_);
    server_stats_.busy_seconds += dt;
    server_stats_.messages_handled += batch.size();
    server_stats_.elapsed_seconds = seconds_since(start_time_);
  }
  // Queue closed: flush anything still pending (e.g. a run that never
  // called end_iteration on its last step).
  for (std::int64_t it : shard.metadata.pending_iterations()) {
    complete_iteration(shard, it);
  }
  MutexLock lock(stats_mutex_);
  server_stats_.elapsed_seconds = seconds_since(start_time_);
}

void DamarisNode::handle_message(Shard& shard, const shm::Message& msg) {
  switch (msg.type) {
    case shm::MessageType::kWriteNotification: {
      const NameTable::value_type& name = *names_.at(msg.name_id);
      VariableBlock block;
      block.variable = name.first;
      block.variable_id = msg.name_id;
      block.iteration = msg.iteration;
      block.source = msg.client_id;
      block.block = msg.block;
      block.layout = name.second.layout;
      block.pipeline = &pipelines_[msg.name_id];
      block.size = msg.block.size;
      if (auto replaced = shard.metadata.add(block)) {
        buffer_->deallocate(replaced->block);
        if (opts_.fault_checker != nullptr) {
          opts_.fault_checker->note_superseded(replaced->iteration);
        }
      }
      break;
    }
    case shm::MessageType::kUserEvent: {
      // The reserved "..end_iteration" event drives iteration completion.
      if (msg.name_id == end_iteration_id_) {
        if (++shard.end_counts[msg.iteration] == shard.clients) {
          shard.end_counts.erase(msg.iteration);
          maybe_crash(shard, msg.iteration);
          complete_iteration(shard, msg.iteration);
          maybe_close_queue(shard, msg.iteration);
        }
        break;
      }
      const std::string& name = names_.at(msg.name_id)->first;
      const config::EventDecl* decl = cfg_.find_event(name);
      if (!decl) {
        DMR_LOG(kWarn, "damaris") << "unknown event '" << name << "'";
        break;
      }
      if (msg.client_id < 0) {
        // External steering tools bypass the scope counting: their
        // event runs once, immediately.
        run_event(shard, *decl, msg.iteration, /*source=*/-1);
      } else if (decl->scope == "global") {
        // Fires once all clients of this shard have signalled (the
        // shard *is* the symmetric group, §V-A).
        auto key = std::make_pair(msg.name_id, msg.iteration);
        if (++shard.event_counts[key] == shard.clients) {
          shard.event_counts.erase(key);
          run_event(shard, *decl, msg.iteration, /*source=*/-1);
        }
      } else {
        run_event(shard, *decl, msg.iteration, msg.client_id);
      }
      break;
    }
    case shm::MessageType::kClientFinalize: {
      if (++shard.finalized_clients == shard.clients) {
        shard.queue.close();
      }
      break;
    }
  }
}

void DamarisNode::run_event(Shard& shard, const config::EventDecl& decl,
                            std::int64_t iteration, int source) {
  // start() made sure the action is registered.
  const PluginFn& fn = *plugins_.find(decl.action);
  EventContext ctx{*this, decl.name, iteration, source, shard.id, {}};
  for (const VariableBlock* b : shard.metadata.blocks_of(iteration)) {
    ctx.blocks.push_back(view_of(*b));
  }
  fn(ctx);
  MutexLock lock(stats_mutex_);
  ++server_stats_.events_handled;
}

plugin::BlockView DamarisNode::view_of(const VariableBlock& b) const {
  plugin::BlockView v;
  v.variable = b.variable;
  v.iteration = b.iteration;
  v.source = b.source;
  v.layout = b.layout;
  v.data = std::span<const std::byte>(buffer_->data(b.block),
                                      static_cast<std::size_t>(b.size));
  return v;
}

void DamarisNode::run_chain(plugin::PluginPipeline& chain, int shard,
                            std::int64_t iteration,
                            std::span<const plugin::BlockView> views) {
  plugin::PluginContext ctx;
  ctx.shard = shard;
  ctx.publish = [this](const std::string& key, double value) {
    publish_analytic(key, value);
  };
  if (Status s = chain.run_iteration(iteration, views, ctx); !s.is_ok()) {
    // Already counted and logged per plugin by the pipeline.
    DMR_LOG(kWarn, "damaris")
        << "plugin chain reported an error on iteration " << iteration
        << ": " << s.to_string();
  }
}

void DamarisNode::complete_iteration(Shard& shard, std::int64_t iteration) {
  std::vector<VariableBlock> blocks = shard.metadata.take_iteration(iteration);
  if (blocks.empty()) return;

  IterationRecord rec;
  rec.iteration = iteration;
  rec.shard = shard.id;
  rec.blocks = blocks.size();
  for (const auto& b : blocks) rec.raw_bytes += b.size;

  // The in-situ window (DESIGN.md §15): every block of the iteration is
  // published and still in shared memory, persist has not started —
  // plugins read the complete data here, on the dedicated core, while
  // the clients already compute the next iteration. A zero-plugin
  // configuration takes the exact historical path (no views built, no
  // pipeline call), which is what the byte-identical parity test pins.
  if (block_plugins_ != nullptr && !block_plugins_->empty()) {
    std::vector<plugin::BlockView> views;
    views.reserve(blocks.size());
    for (const auto& b : blocks) views.push_back(view_of(b));
    const auto p0 = WallClock::now();
    run_chain(*block_plugins_, shard.id, iteration, views);
    rec.plugin_seconds = seconds_since(p0);
  }

  const auto t0 = WallClock::now();
  Status persist_status = Status::ok();
  if (opts_.persist_on_end_iteration) {
    const std::uint64_t retries_before = shard.persistency.stats().retries;
    persist_status =
        shard.persistency.write_blocks(iteration, blocks, *buffer_);
    if (!persist_status.is_ok()) {
      DMR_LOG(kError, "damaris")
          << "persist failed for iteration " << iteration << ": "
          << persist_status.to_string();
    }
    if (opts_.fault_checker != nullptr) {
      const std::uint64_t retried =
          shard.persistency.stats().retries - retries_before;
      for (std::uint64_t i = 0; i < retried; ++i) {
        opts_.fault_checker->note_retry();
      }
      opts_.fault_checker->note_persist(shard.id, iteration,
                                        static_cast<int>(blocks.size()),
                                        persist_status);
    }
  }
  rec.write_seconds = seconds_since(t0);
  rec.persisted = persist_status.is_ok();

  std::vector<shm::Block> freed;
  freed.reserve(blocks.size());
  for (const auto& b : blocks) freed.push_back(b.block);
  buffer_->deallocate_batch(std::move(freed));

  MutexLock lock(stats_mutex_);
  if (!persist_status.is_ok()) {
    ++server_stats_.failed_iterations;
    if (server_stats_.first_error.is_ok()) {
      server_stats_.first_error = persist_status;
    }
  }
  server_stats_.iterations.push_back(rec);
}

void DamarisNode::maybe_crash(Shard& shard, std::int64_t iteration) {
  if (injector_ == nullptr ||
      !injector_->fires(fault::Site::kCoreCrash,
                        static_cast<double>(iteration),
                        fault::mix_key(static_cast<std::uint64_t>(shard.id),
                                       static_cast<std::uint64_t>(iteration)))) {
    return;
  }
  double stall = injector_->stall_of(fault::Site::kCoreCrash);
  if (stall <= 0.0) stall = 0.005;
  DMR_LOG(kWarn, "damaris") << "injected crash of shard " << shard.id
                            << " at iteration " << iteration << " ("
                            << stall << " s restart)";
  degrade_->on_server_down();
  const double t0 = [] {
    if (trace::Tracer* tr = trace::current()) return tr->wall_now();
    return 0.0;
  }();
  std::this_thread::sleep_for(std::chrono::duration<double>(stall));
  degrade_->on_server_up();
  if (trace::Tracer* tr = trace::current();
      tr != nullptr && tr->enabled(trace::Category::kFault)) {
    tr->record_span({trace::EntityType::kNode,
                     static_cast<std::uint32_t>(opts_.node_id)},
                    trace::Category::kFault, "core-restart", t0,
                    tr->wall_now() - t0, 0,
                    static_cast<std::int32_t>(iteration));
  }
  MutexLock lock(stats_mutex_);
  ++server_stats_.crashes;
}

void DamarisNode::maybe_close_queue(Shard& shard, std::int64_t iteration) {
  if (injector_ == nullptr ||
      !injector_->fires(fault::Site::kShmQueueClose,
                        static_cast<double>(iteration),
                        fault::mix_key(static_cast<std::uint64_t>(shard.id),
                                       static_cast<std::uint64_t>(iteration)))) {
    return;
  }
  DMR_LOG(kWarn, "damaris") << "injected queue close of shard " << shard.id
                            << " after iteration " << iteration;
  trace_fault(opts_.node_id, "queue-close", iteration);
  shard.queue.close();
  MutexLock lock(stats_mutex_);
  ++server_stats_.queue_closes;
}

void DamarisNode::register_builtin_actions() {
  // "write": persist the signalled iteration immediately (on the shard
  // that received the event).
  plugins_.register_action("write", [this](EventContext& ctx) {
    complete_iteration(*shards_[ctx.shard], ctx.iteration);
  });
  // "stats": the statistics plugin over the blocks the event sees,
  // publishing "<variable>.count/.min/.max/.mean/.stddev".
  plugins_.register_action("stats", [this](EventContext& ctx) {
    plugin::PluginPipeline chain;
    chain.add(std::make_unique<plugin::StatisticsPlugin>("stats"));
    run_chain(chain, ctx.shard, ctx.iteration, ctx.blocks);
  });
}

// ---------------------------------------------------------------- client

Result<shm::Block> DamarisNode::blocking_allocate(Bytes size, int client) {
  const auto deadline =
      WallClock::now() +
      std::chrono::milliseconds(resilience_.degrade.block_timeout_ms);
  bool stalled = false;
  for (;;) {
    auto r = buffer_->allocate(size, client);
    if (r.is_ok()) {
      if (stalled) {
        ClientState& state = *clients_[static_cast<std::size_t>(client)];
        MutexLock lock(state.mutex);
        ++state.stats.alloc_stalls;
      }
      return r;
    }
    if (r.status().code() != ErrorCode::kOutOfMemory) return r;
    if (WallClock::now() >= deadline) {
      return out_of_memory("allocation timed out after waiting for server");
    }
    stalled = true;
    std::this_thread::yield();
  }
}

Status Client::write(const std::string& variable, std::int64_t iteration,
                     std::span<const std::byte> data) {
  return node_->write(id_, variable, iteration, data, /*sized=*/false);
}

Status Client::write_sized(const std::string& variable,
                           std::int64_t iteration,
                           std::span<const std::byte> data) {
  return node_->write(id_, variable, iteration, data, /*sized=*/true);
}

// ------------------------------------------------------- the write path

Status DamarisNode::write(int client, const std::string& variable,
                          std::int64_t iteration,
                          std::span<const std::byte> data, bool sized) {
  auto var = resolve(client, variable, data.size(), sized);
  if (!var.is_ok()) return var.status();
  return copy_write(client, var.value()->id, iteration, data);
}

Result<shm::Block> DamarisNode::reserve(int client, std::int64_t iteration,
                                        Bytes size) {
  // Three ways this can come back without a block, all funnelled
  // through the degrade controller: an injected exhaustion window, a
  // real exhaustion (timeout), or — in an already-degraded mode — a
  // single failed probe (no blocking wait: a degraded client must not
  // stall the simulation).
  if (injector_ != nullptr &&
      injector_->fires_window(fault::Site::kShmExhaust,
                              static_cast<double>(iteration))) {
    return out_of_memory("injected shm exhaustion window at iteration " +
                         std::to_string(iteration));
  }
  if (degrade_->mode() != fault::DegradeMode::kNormal) {
    return buffer_->allocate(size, client);
  }
  return blocking_allocate(size, client);
}

Status DamarisNode::copy_write(int client, std::uint32_t name_id,
                               std::int64_t iteration,
                               std::span<const std::byte> data) {
  const auto t0 = WallClock::now();
  Result<shm::Block> block = reserve(client, iteration, data.size());
  Status st = Status::ok();
  if (!block.is_ok()) {
    if (block.status().code() != ErrorCode::kOutOfMemory) {
      return block.status();
    }
    st = degraded_write(client, name_id, iteration, data,
                        degrade_->on_pressure(), block.status());
  } else {
    std::memcpy(buffer_->data(block.value()), data.data(), data.size());
    if (publish(client, name_id, iteration, block.value())) {
      degrade_->on_clear();
    } else {
      st = degraded_write(
          client, name_id, iteration, data, degrade_->on_pressure(),
          resource_busy("write of '" + names_.at(name_id)->first +
                        "' dropped: server queue already closed"));
    }
  }
  if (st.is_ok()) record_write(client, data.size(), seconds_since(t0));
  return st;
}

bool DamarisNode::publish(int client, std::uint32_t name_id,
                          std::int64_t iteration, const shm::Block& block) {
  // The client's last touch of the payload.
  buffer_->note_write(block);
  shm::Message msg;
  msg.type = shm::MessageType::kWriteNotification;
  msg.client_id = client;
  msg.iteration = iteration;
  msg.name_id = name_id;
  msg.block = block;
  if (shards_[shard_of(client)]->queue.push(msg)) {
    if (opts_.fault_checker != nullptr) {
      opts_.fault_checker->note_write(client, iteration,
                                      check::WriteOutcome::kPublished);
    }
    return true;
  }
  // The server is shutting down and will never consume this block, so
  // the pusher must release it or it leaks until shutdown.
  buffer_->deallocate(block);
  return false;
}

void DamarisNode::record_write(int client, Bytes bytes, double seconds) {
  ClientState& state = *clients_[static_cast<std::size_t>(client)];
  MutexLock lock(state.mutex);
  ClientStats& cs = state.stats;
  ++cs.writes;
  cs.bytes_written += bytes;
  cs.write_seconds += seconds;
  cs.max_write_seconds = std::max(cs.max_write_seconds, seconds);
}

Status DamarisNode::degraded_write(int client, std::uint32_t name_id,
                                   std::int64_t iteration,
                                   std::span<const std::byte> data,
                                   fault::DegradeMode mode,
                                   const Status& cause) {
  ClientState& state = *clients_[static_cast<std::size_t>(client)];
  const auto drop = [&]() -> Status {
    trace_fault(opts_.node_id, "write-dropped", iteration);
    if (opts_.fault_checker != nullptr) {
      opts_.fault_checker->note_write(client, iteration,
                                      check::WriteOutcome::kDropped);
    }
    MutexLock lock(state.mutex);
    ++state.stats.dropped_writes;
    state.stats.dropped_bytes += data.size();
    return Status::ok();
  };

  if (mode == fault::DegradeMode::kDrop && resilience_.degrade.allow_drop) {
    return drop();
  }
  if (resilience_.degrade.allow_sync) {
    Status st = sync_write(client, name_id, iteration, data);
    if (st.is_ok()) {
      if (opts_.fault_checker != nullptr) {
        opts_.fault_checker->note_write(client, iteration,
                                        check::WriteOutcome::kSyncWritten);
      }
      MutexLock lock(state.mutex);
      ++state.stats.sync_writes;
      return Status::ok();
    }
    if (resilience_.degrade.allow_drop) return drop();
    return st;
  }
  if (resilience_.degrade.allow_drop) return drop();
  // No fallback allowed: the historical behaviour — surface the cause.
  if (opts_.fault_checker != nullptr) {
    opts_.fault_checker->note_write(client, iteration,
                                    check::WriteOutcome::kFailed);
  }
  return cause;
}

Status DamarisNode::sync_write(int client, std::uint32_t name_id,
                               std::int64_t iteration,
                               std::span<const std::byte> data) {
  const auto& [variable, info] = *names_.at(name_id);
  std::error_code ec;
  std::filesystem::create_directories(opts_.output_dir, ec);
  if (ec) return io_error("cannot create " + opts_.output_dir);

  // One standalone file per degraded write — the per-process small-file
  // pattern the dedicated core normally avoids (that cost is the point).
  const std::uint64_t seq =
      sync_seq_.fetch_add(1, std::memory_order_relaxed);
  const std::string path =
      opts_.output_dir + "/" + opts_.file_prefix + "_node" +
      std::to_string(opts_.node_id) + "_sync_c" + std::to_string(client) +
      "_it" + std::to_string(iteration) + "_" + std::to_string(seq) + ".dh5";
  auto writer = format::Dh5Writer::create(path);
  if (!writer.is_ok()) return writer.status();

  format::DatasetInfo dataset;
  dataset.name = variable;
  dataset.iteration = iteration;
  dataset.source = client;
  if (info.layout != nullptr) dataset.layout = *info.layout;

  format::EncodedBuffer encoded = pipelines_[name_id].encode(data);
  Status st = writer.value().add_encoded(dataset, encoded, data.size());
  if (!st.is_ok()) return st;
  st = writer.value().finalize();
  if (!st.is_ok()) return st;

  trace_fault(opts_.node_id, "sync-write", iteration);
  MutexLock lock(stats_mutex_);
  ++server_stats_.sync_files;
  server_stats_.sync_bytes += data.size();
  return Status::ok();
}

Result<std::span<std::byte>> Client::alloc(const std::string& variable,
                                           std::int64_t iteration) {
  auto var = node_->resolve(id_, variable, 0, /*sized=*/true);
  if (!var.is_ok()) return var.status();
  const auto key = std::make_tuple(id_, var.value()->id, iteration);
  {
    // A second alloc would orphan the first block: nothing could commit
    // or free it.
    MutexLock lock(node_->pending_mutex_);
    if (node_->pending_allocs_.contains(key)) {
      return failed_precondition("'" + variable + "' is already allocated "
                                 "for iteration " + std::to_string(iteration));
    }
  }
  auto block = node_->blocking_allocate(var.value()->layout->byte_size(), id_);
  if (!block.is_ok()) return block.status();
  {
    MutexLock lock(node_->pending_mutex_);
    node_->pending_allocs_.emplace(key, block.value());
  }
  return std::span<std::byte>(node_->buffer_->data(block.value()),
                              block.value().size);
}

Status Client::commit(const std::string& variable, std::int64_t iteration) {
  auto var = node_->resolve(id_, variable, 0, /*sized=*/true);
  if (!var.is_ok()) return var.status();
  shm::Block block;
  {
    MutexLock lock(node_->pending_mutex_);
    auto it = node_->pending_allocs_.find({id_, var.value()->id, iteration});
    if (it == node_->pending_allocs_.end()) {
      return failed_precondition("no pending alloc for '" + variable + "'");
    }
    block = it->second;
    node_->pending_allocs_.erase(it);
  }
  const auto t0 = WallClock::now();
  if (!node_->publish(id_, var.value()->id, iteration, block)) {
    return resource_busy("commit of '" + variable +
                         "' dropped: server queue already closed");
  }
  node_->record_write(id_, block.size, seconds_since(t0));
  return Status::ok();
}

Status Client::signal(const std::string& event, std::int64_t iteration) {
  if (Status st = node_->check_client(id_); !st.is_ok()) return st;
  const std::uint32_t id = node_->name_id(event);
  if (id == ~0u) return not_found("event '" + event + "' unknown");
  if (!node_->cfg_.find_event(event)) {
    return not_found("event '" + event + "' not configured");
  }
  shm::Message msg;
  msg.type = shm::MessageType::kUserEvent;
  msg.client_id = id_;
  msg.iteration = iteration;
  msg.name_id = id;
  if (!node_->shards_[node_->shard_of(id_)]->queue.push(msg)) {
    return resource_busy("signal '" + event +
                         "' dropped: server queue already closed");
  }
  return Status::ok();
}

Status Client::end_iteration(std::int64_t iteration) {
  if (Status st = node_->check_client(id_); !st.is_ok()) return st;
  shm::Message msg;
  msg.type = shm::MessageType::kUserEvent;
  msg.client_id = id_;
  msg.iteration = iteration;
  msg.name_id = node_->end_iteration_id_;
  if (!node_->shards_[node_->shard_of(id_)]->queue.push(msg)) {
    return resource_busy("end_iteration dropped: server queue already closed");
  }
  return Status::ok();
}

Status Client::finalize() {
  if (Status st = node_->check_client(id_); !st.is_ok()) return st;
  shm::Message msg;
  msg.type = shm::MessageType::kClientFinalize;
  msg.client_id = id_;
  // A drop means the queue is already closed — the server is gone,
  // which is the state finalize exists to reach.
  (void)node_->shards_[node_->shard_of(id_)]->queue.push(msg);
  return Status::ok();
}

ClientStats Client::stats() const { return node_->client_stats(id_); }

}  // namespace dmr::core
