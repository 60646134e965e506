// The real middleware workloads: a closed loop of three client threads
// writing through core::Client into one DamarisNode, plus one observer
// thread that watches the output directory with inotify. Clients and the
// dedicated core are pinned one per CPU (CorePlan).
#include <poll.h>
#include <sched.h>
#include <sys/inotify.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "config/config.hpp"
#include "core/damaris.hpp"
#include "format/dh5.hpp"
#include "payload.hpp"
#include "plugin/builtin.hpp"

namespace e2e {
namespace {

using namespace dmr;

constexpr int kClients = 3;
constexpr const char* kPrefix = "e2e";
constexpr int kSetupBurst = 7;
constexpr std::chrono::milliseconds kSetupPause{200};

struct Spec {
  const char* name;
  int vars;  // variables each client writes per iteration
  std::uint64_t nx, ny, nz;
  bool persist;
  const char* pipeline;  // "" (raw) or "lossless"
  bool plugins;
  int compute_ms;  // sleep between iterations: the application's compute phase
  std::uint64_t buffer_bytes;
  double iterations_per_second;  // fixed work: iterations = this * --seconds
  int warmup;                    // unmeasured leading iterations
};

/// Warm-up iterations skip the compute phase, so the clients run ahead
/// of the dedicated core until the first-fit buffer is full: every page
/// of the buffer is touched before timing starts, and no measured write
/// pays for first-touch page faults. Enough of them to fill the buffer
/// once, plus one.
int warmup_of(const Spec& s) {
  const std::uint64_t per_iteration =
      static_cast<std::uint64_t>(kClients * s.vars) * s.nx * s.ny * s.nz * sizeof(float);
  return std::max(s.warmup, static_cast<int>(s.buffer_bytes / per_iteration) + 2);
}

// Why each workload exists:
//  - write-small: 64 declared 4 KiB variables per client per iteration,
//    back to back, persistence off. Only core (API, ticket path) and shm
//    work, so it isolates the per-call cost of a write; format and the
//    persistency layer stay idle.
//  - ckpt-24m: the paper's Fig. 5 setting, ~24 MiB per client per
//    iteration as 8 raw 3 MiB fields, then a 500 ms compute phase. Big
//    memcpys, CRC32 and DH5 file writes dominate the dedicated core. It
//    runs by name but is left out of BENCHMARK.json: its write tail
//    follows the shared host's memory traffic (README.md).
//  - insitu-lossless: one 512 KiB field per client per iteration through
//    the lossless codec and the statistics/minmax_index/downsample plugin
//    chain, then a 250 ms compute phase. Codec and plugin time dominate.
//    The spare fraction moves busy/spare times as much as the dedicated
//    core's speed does: with 1 MiB fields the core was 0.6 busy and the
//    host's drift moved the spare fraction 1.6 times as much; at 512 KiB
//    it is about 0.3 busy. A longer compute phase would do the same but
//    leave fewer write samples for the tail.
const Spec kSpecs[] = {
    {"write-small", 64, 16, 8, 8, false, "", false, 0, 64ull << 20, 1700.0, 100},
    {"ckpt-24m", 8, 128, 96, 64, true, "", false, 500, 256ull << 20, 1.9, 1},
    {"insitu-lossless", 1, 64, 64, 32, true, "lossless", true, 250, 8ull << 20,
     3.8, 1},
};

const Spec* find_spec(const std::string& name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

std::string var_name(int v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "v%02d", v);
  return buf;
}

std::string xml_of(const Spec& s) {
  std::string x = "<damaris>\n";
  x += "  <buffer size=\"" + std::to_string(s.buffer_bytes) +
       "\" policy=\"firstfit\"/>\n";
  x += "  <layout name=\"block\" type=\"float32\" dimensions=\"" +
       std::to_string(s.nx) + "," + std::to_string(s.ny) + "," +
       std::to_string(s.nz) + "\"/>\n";
  for (int v = 0; v < s.vars; ++v) {
    x += "  <variable name=\"" + var_name(v) + "\" layout=\"block\"";
    if (*s.pipeline != '\0') x += std::string(" pipeline=\"") + s.pipeline + "\"";
    x += "/>\n";
  }
  if (!s.persist) {
    // Without persistence no file marks an iteration done; a global event
    // signalled after end_iteration fires once the dedicated core handled
    // every client's end_iteration, i.e. once the iteration is retired.
    x += "  <event name=\"retired\" action=\"e2e_retired\" scope=\"global\"/>\n";
  }
  if (s.plugins) {
    x += "  <plugins>\n"
         "    <plugin name=\"statistics\" type=\"statistics\"/>\n"
         "    <plugin name=\"minmax_index\" type=\"minmax_index\"/>\n"
         "    <plugin name=\"downsample\" type=\"downsample\" stride=\"8\"/>\n"
         "  </plugins>\n";
  }
  return x + "</damaris>\n";
}

/// Generated inputs: one base field per (client, variable); element 0
/// is restamped every iteration (payload.hpp).
struct Inputs {
  std::vector<std::vector<std::vector<float>>> base;  // [client][var]
  std::size_t elements = 0;
};

Inputs make_inputs(const Spec& s, std::uint64_t seed) {
  Inputs in;
  in.elements = s.nx * s.ny * s.nz;
  in.base.resize(kClients);
  for (int c = 0; c < kClients; ++c) {
    for (int v = 0; v < s.vars; ++v) {
      in.base[c].push_back(
          cm1_field(mix(seed, static_cast<std::uint64_t>(c * 1000 + v)), s.nx,
                    s.ny, s.nz));
    }
  }
  return in;
}

std::span<const std::byte> bytes_of(const std::vector<float>& v) {
  return std::as_bytes(std::span<const float>(v));
}

struct ClientLog {
  std::vector<double> write_us;      // measured iterations only
  std::vector<double> end_us;        // end_iteration latency, measured only
  std::vector<double> end_return_s;  // per iteration, since the run epoch
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_error;

  void outcome(const Status& s) {
    ++attempted;
    if (!s.is_ok()) {
      ++failed;
      if (first_error.empty()) first_error = s.to_string();
    }
  }
};

/// Read-back results of a run's DH5 files.
struct FileChecks {
  std::uint64_t checks = 0;    // files opened plus datasets read
  std::uint64_t datasets = 0;  // datasets read
  std::vector<std::string> failures;
};

/// One node lifetime: setups, the fixed-work run, and its raw results.
struct Pass {
  std::vector<double> setup_s;
  double wall_s = 0.0;
  int iterations = 0;  // including warmup
  int warmup = 0;
  std::vector<double> end_us;
  /// Write latencies of the measured iterations, split into consecutive
  /// rounds (one round unless every round still holds 10000 samples).
  std::vector<std::vector<double>> write_rounds;
  std::vector<double> persist_ms;     // per measured iteration
  std::vector<double> queue_wait_ms;  // persist_ms minus plugin and write time
  std::uint64_t writes = 0;
  std::uint64_t ops_attempted = 0, ops_failed = 0;
  std::string first_error;
  core::ServerStats stats;
  std::vector<plugin::PluginStats> plugins;
  std::map<std::string, double> analytics;
  std::vector<plugin::MinMaxIndexPlugin::Entry> index;
  std::uint64_t alloc_stalls = 0;  // measured iterations only
  double spare_fraction = 0.0;     // measured iterations only
  FileChecks files;                // read-back of every DH5 file
};

/// The paper's node layout: client c runs on core c and the dedicated
/// core on core kClients. A thread pins itself before it starts any
/// thread of the node, which inherits the pin: each client's write
/// worker shares its client's core; the server thread, the observer and
/// the verifier share the dedicated one. A write then hands off to a
/// thread on its own core instead of waking an idle (possibly
/// descheduled) virtual CPU, which on a shared host costs up to
/// milliseconds per write. With fewer than kClients + 1 allowed CPUs
/// nothing is pinned.
class CorePlan {
 public:
  CorePlan() {
    if (sched_getaffinity(0, sizeof initial_, &initial_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE && static_cast<int>(cpus_.size()) <= kClients; ++cpu) {
      if (CPU_ISSET(cpu, &initial_)) cpus_.push_back(cpu);
    }
  }
  bool active() const { return static_cast<int>(cpus_.size()) > kClients; }
  /// Pins the calling thread to the core of `slot` (0..kClients).
  void pin(int slot) const {
    if (!active()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[static_cast<std::size_t>(slot)], &one);
    (void)sched_setaffinity(0, sizeof one, &one);
  }
  /// Gives the calling thread back every CPU it started with.
  void release() const {
    if (active()) (void)sched_setaffinity(0, sizeof initial_, &initial_);
  }

 private:
  cpu_set_t initial_{};
  std::vector<int> cpus_;
};

/// Iteration number of a final DH5 name "<prefix>_node0_it<N>.dh5", or -1.
std::int64_t iteration_of(const char* name) {
  const std::string head = std::string(kPrefix) + "_node0_it";
  const std::size_t len = std::strlen(name);
  if (len <= head.size() + 4 || std::strncmp(name, head.c_str(), head.size()) != 0 ||
      std::strcmp(name + len - 4, ".dh5") != 0) {
    return -1;
  }
  return std::strtoll(name + head.size(), nullptr, 10);
}

std::string file_of(const std::string& dir, std::int64_t iteration) {
  return dir + "/" + kPrefix + "_node0_it" + std::to_string(iteration) + ".dh5";
}

bool same_bytes(const std::vector<std::byte>& got, const std::vector<float>& base,
                std::int64_t iteration) {
  if (got.size() != base.size() * sizeof(float)) return false;
  float first = 0.0f;
  std::memcpy(&first, got.data(), sizeof first);
  const float want = stamp(base[0], iteration);
  return std::memcmp(&first, &want, sizeof first) == 0 &&
         std::memcmp(got.data() + sizeof(float), base.data() + 1,
                     got.size() - sizeof(float)) == 0;
}

/// Reads back one iteration's file, then removes it. Dh5Reader verifies
/// each dataset's CRC; raw data must be byte-equal to the generated
/// payload, lossless data must decode to it.
void check_file(const Spec& spec, const Inputs& in, const std::string& dir,
                std::int64_t it, FileChecks& out) {
  const std::string path = file_of(dir, it);
  ++out.checks;
  auto reader = format::Dh5Reader::open(path);
  if (!reader.is_ok()) {
    out.failures.push_back("open " + path + ": " + reader.status().to_string());
    return;
  }
  const auto& entries = reader.value().entries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const format::DatasetEntry& e = entries[i];
    const int c = e.info.source;
    const int v = std::atoi(e.info.name.c_str() + 1);
    auto data = reader.value().read(i);
    const bool ok = data.is_ok() && c >= 0 && c < kClients && v >= 0 && v < spec.vars &&
                    e.info.iteration == it && same_bytes(data.value(), in.base[c][v], it);
    ++out.checks;
    ++out.datasets;
    if (!ok) {
      out.failures.push_back("dataset " + e.info.name + " of client " + std::to_string(c) +
                             " in " + path + " does not read back equal to its payload");
    }
  }
  std::error_code ignored;
  std::filesystem::remove(path, ignored);
}

/// Checks each iteration's file as soon as it is closed, then removes it.
/// Files left in place until the end pile up dirty page-cache data until
/// the kernel flushes gigabytes to disk in the middle of a run, which
/// moved ckpt-24m's persist_p50_ms and spare_fraction by 10-12 % between
/// runs (3 % with prompt removal). The thread shares the dedicated core
/// (it inherits the pin of the thread that makes it) under SCHED_IDLE,
/// so it only runs while the server thread is idle, and leaves the
/// clients' cores and caches alone.
class Verifier {
 public:
  Verifier(const Spec& spec, const Inputs& in, std::string dir)
      : spec_(spec), in_(in), dir_(std::move(dir)) {
    thread_ = std::thread([this] {
      sched_param idle{};
      (void)sched_setscheduler(0, SCHED_IDLE, &idle);
      loop();
    });
  }
  ~Verifier() { finish(); }
  Verifier(const Verifier&) = delete;
  Verifier& operator=(const Verifier&) = delete;

  void submit(std::int64_t it) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(it);
    }
    cv_.notify_one();
  }
  /// Checks what is still queued, then stops; the results are then stable.
  const FileChecks& finish() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
    return checks_;
  }

 private:
  void loop() {
    for (;;) {
      std::int64_t it = 0;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return done_ || !queue_.empty(); });
        if (queue_.empty()) return;
        it = queue_.front();
        queue_.pop_front();
      }
      check_file(spec_, in_, dir_, it, checks_);
    }
  }

  const Spec& spec_;
  const Inputs& in_;
  const std::string dir_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::int64_t> queue_;
  bool done_ = false;
  FileChecks checks_;  // the thread's own until finish() joins it
  std::thread thread_;
};

/// Records when each iteration's file appears closed under its final
/// name (a close after writing, or a rename onto the final name) and
/// hands the iteration to `on_closed`, once.
class DirObserver {
 public:
  DirObserver(const std::string& dir, int iterations, Clock::time_point epoch,
              std::function<void(std::int64_t)> on_closed)
      : closed_(static_cast<std::size_t>(iterations), -1.0),
        epoch_(epoch),
        on_closed_(std::move(on_closed)) {
    fd_ = inotify_init1(IN_NONBLOCK | IN_CLOEXEC);
    if (fd_ >= 0 && inotify_add_watch(fd_, dir.c_str(), IN_CLOSE_WRITE | IN_MOVED_TO) < 0) {
      ::close(fd_);
      fd_ = -1;
    }
    if (fd_ >= 0) thread_ = std::thread([this] { loop(); });
  }
  ~DirObserver() { stop(); }
  DirObserver(const DirObserver&) = delete;
  DirObserver& operator=(const DirObserver&) = delete;

  /// Stops after draining queued events; closed() is then stable.
  void stop() {
    stopping_.store(true);
    if (thread_.joinable()) thread_.join();
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  const std::vector<double>& closed() const { return closed_; }

 private:
  void loop() {
    alignas(inotify_event) char buf[16384];
    for (;;) {
      pollfd p{fd_, POLLIN, 0};
      const int r = ::poll(&p, 1, 20);
      const double now = std::chrono::duration<double>(Clock::now() - epoch_).count();
      if (r > 0) {
        for (;;) {
          const ssize_t n = ::read(fd_, buf, sizeof buf);
          if (n <= 0) break;
          for (ssize_t off = 0; off < n;) {
            const auto* ev = reinterpret_cast<const inotify_event*>(buf + off);
            if (ev->len > 0) {
              const std::int64_t it = iteration_of(ev->name);
              if (it >= 0 && it < static_cast<std::int64_t>(closed_.size()) &&
                  closed_[static_cast<std::size_t>(it)] < 0.0) {
                closed_[static_cast<std::size_t>(it)] = now;
                on_closed_(it);
              }
            }
            off += static_cast<ssize_t>(sizeof(inotify_event) + ev->len);
          }
        }
      } else if (stopping_.load()) {
        return;
      }
    }
  }

  int fd_ = -1;
  std::vector<double> closed_;
  Clock::time_point epoch_;
  std::function<void(std::int64_t)> on_closed_;
  std::atomic<bool> stopping_{false};
  std::thread thread_;
};

Pass run_pass(const Spec& spec, const Inputs& in, int iterations, int warmup,
              int setups, int compute_ms, const std::string& out_dir,
              SpanRecorder* spans) {
  Pass pass;
  pass.iterations = iterations;
  pass.warmup = warmup;
  const std::string xml = xml_of(spec);
  std::vector<double> retired(static_cast<std::size_t>(iterations), -1.0);
  const Clock::time_point epoch = Clock::now();

  core::NodeOptions opts;
  opts.output_dir = out_dir;
  opts.file_prefix = kPrefix;
  opts.persist_on_end_iteration = spec.persist;
  const CorePlan cores;
  cores.pin(kClients);

  // Set-up: config parsing, node construction and start(), several times;
  // the last node runs the workload. The host's speed varies over
  // seconds, so the set-ups come in bursts spread over about 1.5 s.
  std::unique_ptr<core::DamarisNode> node;
  for (int k = 0; k < setups; ++k) {
    if (node) {
      (void)node->stop();
      node.reset();
    }
    if (k > 0 && k % kSetupBurst == 0) std::this_thread::sleep_for(kSetupPause);
    const Clock::time_point t0 = Clock::now();
    auto cfg = config::Config::from_string(xml);
    if (!cfg.is_ok()) {
      pass.first_error = "config: " + cfg.status().to_string();
      ++pass.ops_failed;
      ++pass.ops_attempted;
      return pass;
    }
    node = std::make_unique<core::DamarisNode>(std::move(cfg).value(), kClients, opts);
    if (!spec.persist) {
      node->plugins().register_action("e2e_retired", [&retired, epoch](core::EventContext& ctx) {
        if (ctx.iteration >= 0 && ctx.iteration < static_cast<std::int64_t>(retired.size())) {
          retired[static_cast<std::size_t>(ctx.iteration)] =
              std::chrono::duration<double>(Clock::now() - epoch).count();
        }
      });
    }
    const Status started = node->start();
    pass.setup_s.push_back(seconds_since(t0));
    ++pass.ops_attempted;
    if (!started.is_ok()) {
      ++pass.ops_failed;
      pass.first_error = "start: " + started.to_string();
      return pass;
    }
  }

  std::unique_ptr<Verifier> verifier;
  std::unique_ptr<DirObserver> observer;
  if (spec.persist) {
    verifier = std::make_unique<Verifier>(spec, in, out_dir);
    observer = std::make_unique<DirObserver>(out_dir, iterations, epoch,
                                             [v = verifier.get()](std::int64_t it) { v->submit(it); });
  }

  std::vector<ClientLog> logs(kClients);
  std::vector<SpanLane*> lanes(kClients, nullptr);
  if (spans != nullptr) {
    for (int c = 0; c < kClients; ++c) lanes[c] = &spans->lane();
  }
  std::vector<std::string> names;
  for (int v = 0; v < spec.vars; ++v) names.push_back(var_name(v));

  // The clients step together, like the ranks of a bulk-synchronous
  // solver: each iteration's writes start at a barrier. Unsynchronised
  // clients can drift apart until the fast ones fill the first-fit buffer
  // with iterations the slow one can no longer complete. Before the first
  // measured iteration the barrier waits until the dedicated core retired
  // every warm-up iteration, and takes the counters the measured window
  // starts from.
  core::ServerStats at_warmup;
  std::uint64_t stalls_at_warmup = 0;
  int phase = 0;
  auto on_step = [&]() noexcept {
    if (phase++ != warmup) return;
    const Clock::time_point t0 = Clock::now();
    while (node->stats().iterations.size() < static_cast<std::size_t>(warmup) &&
           seconds_since(t0) < 30.0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    at_warmup = node->stats();
    for (int c = 0; c < kClients; ++c) stalls_at_warmup += node->client_stats(c).alloc_stalls;
  };
  std::barrier step(kClients, on_step);
  const Clock::time_point t_run = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      cores.pin(c);
      ClientLog& log = logs[c];
      SpanLane* lane = lanes[c];
      core::Client client = node->client(c);
      std::vector<std::vector<float>> data = in.base[c];
      log.end_return_s.assign(static_cast<std::size_t>(iterations), 0.0);
      log.write_us.reserve(static_cast<std::size_t>((iterations - warmup) * spec.vars));
      log.end_us.reserve(static_cast<std::size_t>(iterations - warmup));
      for (int it = 0; it < iterations; ++it) {
        const bool measured = it >= warmup;
        step.arrive_and_wait();
        ScopedSpan iter_span(lane, "iteration", "bench", "", it);
        for (int v = 0; v < spec.vars; ++v) {
          data[v][0] = stamp(in.base[c][v][0], it);
          ScopedSpan span(lane, "core.write", "core", "ingest", it);
          const Clock::time_point t0 = Clock::now();
          const Status s = client.write(names[v], it, bytes_of(data[v]));
          const double us = seconds_since(t0) * 1e6;
          log.outcome(s);
          if (measured) log.write_us.push_back(us);
        }
        {
          ScopedSpan span(lane, "core.end_iteration", "core", "", it);
          const Clock::time_point t0 = Clock::now();
          const Status s = client.end_iteration(it);
          const Clock::time_point t1 = Clock::now();
          log.outcome(s);
          if (measured) log.end_us.push_back(std::chrono::duration<double>(t1 - t0).count() * 1e6);
          log.end_return_s[static_cast<std::size_t>(it)] =
              std::chrono::duration<double>(t1 - epoch).count();
        }
        if (!spec.persist) {
          ScopedSpan span(lane, "core.signal", "core", "", it);
          log.outcome(client.signal("retired", it));
        }
        if (compute_ms > 0 && measured) {
          std::this_thread::sleep_for(std::chrono::milliseconds(compute_ms));
        }
      }
      ScopedSpan span(lane, "core.finalize", "core", "", -1);
      log.outcome(client.finalize());
    });
  }
  for (std::thread& t : threads) t.join();
  const Status stopped = node->stop();
  pass.wall_s = seconds_since(t_run);
  ++pass.ops_attempted;
  if (!stopped.is_ok()) {
    ++pass.ops_failed;
    pass.first_error = "stop: " + stopped.to_string();
  }
  if (observer) {
    observer->stop();
    pass.files = verifier->finish();
    // A file the observer never saw closed is read back here (or fails).
    for (int it = 0; it < iterations; ++it) {
      if (observer->closed()[static_cast<std::size_t>(it)] < 0.0) {
        check_file(spec, in, out_dir, it, pass.files);
      }
    }
  }
  cores.release();

  const std::size_t per_client = logs.front().write_us.size();
  const std::size_t rounds =
      std::clamp<std::size_t>(per_client * kClients / 10000, 1, 20);
  pass.write_rounds.resize(rounds);
  for (ClientLog& log : logs) {
    for (std::size_t i = 0; i < log.write_us.size(); ++i) {
      pass.write_rounds[std::min(rounds - 1, i * rounds / per_client)].push_back(log.write_us[i]);
    }
    log.write_us = {};
    pass.end_us.insert(pass.end_us.end(), log.end_us.begin(), log.end_us.end());
    pass.ops_attempted += log.attempted;
    pass.ops_failed += log.failed;
    if (pass.first_error.empty()) pass.first_error = log.first_error;
  }
  pass.writes = static_cast<std::uint64_t>(kClients) * static_cast<std::uint64_t>(iterations) *
                static_cast<std::uint64_t>(spec.vars);
  pass.stats = node->stats();
  pass.plugins = node->plugin_stats();
  pass.analytics = node->analytics();
  if (plugin::PluginPipeline* chain = node->block_plugins()) {
    if (auto* idx = dynamic_cast<plugin::MinMaxIndexPlugin*>(chain->find("minmax_index"))) {
      pass.index = idx->entries();
    }
  }
  for (int c = 0; c < kClients; ++c) pass.alloc_stalls += node->client_stats(c).alloc_stalls;
  pass.alloc_stalls -= stalls_at_warmup;
  const double window = (pass.stats.elapsed_seconds - at_warmup.elapsed_seconds) * pass.stats.shards;
  pass.spare_fraction =
      window <= 0.0 ? 0.0 : 1.0 - (pass.stats.busy_seconds - at_warmup.busy_seconds) / window;

  // Iteration `it` is done when its file is closed under its final name
  // (or, without persistence, when the retire event fired), measured
  // from the return of the last client's end_iteration(it).
  const std::vector<double>& done = observer ? observer->closed() : retired;
  std::map<std::int64_t, const core::IterationRecord*> records;
  for (const core::IterationRecord& r : pass.stats.iterations) records[r.iteration] = &r;
  for (int it = warmup; it < iterations; ++it) {
    double last_end = 0.0;
    for (const ClientLog& log : logs) {
      last_end = std::max(last_end, log.end_return_s[static_cast<std::size_t>(it)]);
    }
    const double t_done = done[static_cast<std::size_t>(it)];
    if (t_done < 0.0) continue;  // counted by verification
    const double ms = (t_done - last_end) * 1e3;
    pass.persist_ms.push_back(ms);
    auto r = records.find(it);
    if (r != records.end()) {
      pass.queue_wait_ms.push_back(ms - (r->second->plugin_seconds + r->second->write_seconds) * 1e3);
    }
  }
  return pass;
}

/// min/max of a block at `iteration`: base without element 0, plus the stamp.
std::pair<double, double> block_range(const std::vector<float>& base, std::int64_t iteration) {
  float lo = stamp(base[0], iteration), hi = lo;
  for (std::size_t i = 1; i < base.size(); ++i) {
    lo = std::min(lo, base[i]);
    hi = std::max(hi, base[i]);
  }
  return {lo, hi};
}

void verify(const Spec& spec, const Inputs& in, const Pass& pass, Report& report) {
  report.operations(pass.ops_attempted, pass.ops_failed,
                    "write/end_iteration/signal/finalize/start/stop calls" +
                        (pass.first_error.empty() ? "" : " (first: " + pass.first_error + ")"));
  const std::uint64_t iterations = static_cast<std::uint64_t>(pass.iterations);
  const std::uint64_t block_bytes = in.elements * sizeof(float);
  const core::ServerStats& st = pass.stats;
  report.check(st.iterations.size() == iterations, "one iteration record per iteration");
  report.check(st.failed_iterations == 0, "no failed iterations");
  bool records_ok = true;
  for (const core::IterationRecord& r : st.iterations) {
    records_ok = records_ok && r.persisted &&
                 r.blocks == static_cast<std::size_t>(kClients * spec.vars) &&
                 r.raw_bytes == static_cast<std::uint64_t>(kClients * spec.vars) * block_bytes;
  }
  report.check(records_ok, "every iteration record holds clients x variables blocks and bytes");

  if (!spec.persist) {
    // Accounting: every write, end_iteration, retire signal and finalize
    // is one message; nothing reaches the disk.
    const std::uint64_t messages = pass.writes + 2 * kClients * iterations + kClients;
    report.check(st.messages_handled == messages,
                 "messages_handled " + std::to_string(st.messages_handled) + " == " +
                     std::to_string(messages));
    report.check(st.persistency.files_written == 0, "no files without persistence");
    report.check(pass.persist_ms.size() == iterations - static_cast<std::uint64_t>(pass.warmup),
                 "every iteration retired");
    return;
  }

  // Every file was read back during the run (check_file).
  const FileChecks& files = pass.files;
  report.operations(files.checks, files.failures.size(),
                    "DH5 file opens and dataset read-backs" +
                        (files.failures.empty() ? "" : " (first: " + files.failures.front() + ")"));
  report.check(files.datasets == iterations * kClients * spec.vars,
               "dataset count " + std::to_string(files.datasets) +
                   " == clients x variables x iterations");
  report.check(st.persistency.files_written == iterations, "one file per iteration");
  report.check(pass.persist_ms.size() == iterations - static_cast<std::uint64_t>(pass.warmup),
               "every measured iteration's file observed closed");

  if (!spec.plugins) return;
  // The plugin analytics must match what the benchmark computes from its
  // own data: statistics of the last iteration, the min/max index of
  // every block.
  const std::int64_t last = static_cast<std::int64_t>(iterations) - 1;
  double lo = std::numeric_limits<double>::infinity(), hi = -lo, sum = 0.0;
  std::uint64_t count = 0;
  for (int c = 0; c < kClients; ++c) {
    for (int v = 0; v < spec.vars; ++v) {
      const std::vector<float>& b = in.base[c][v];
      sum += static_cast<double>(stamp(b[0], last));
      for (std::size_t i = 1; i < b.size(); ++i) sum += static_cast<double>(b[i]);
      const auto [blo, bhi] = block_range(b, last);
      lo = std::min(lo, blo);
      hi = std::max(hi, bhi);
      count += b.size();
    }
  }
  const double mean = sum / static_cast<double>(count);
  auto analytic = [&](const std::string& key) {
    auto it = pass.analytics.find(var_name(0) + "." + key);
    return it == pass.analytics.end() ? std::nan("") : it->second;
  };
  report.check(analytic("count") == static_cast<double>(count), "statistics count");
  report.check(analytic("min") == lo && analytic("max") == hi, "statistics min/max");
  report.check(std::fabs(analytic("mean") - mean) <= 1e-9 * std::fabs(mean), "statistics mean");
  report.check(pass.index.size() == iterations * kClients, "one index entry per block");
  for (const auto& e : pass.index) {
    const bool in_range = e.source >= 0 && e.source < kClients;
    const auto range = in_range ? block_range(in.base[e.source][0], e.iteration)
                                : std::pair<double, double>{0.0, 0.0};
    report.check(in_range && e.min == range.first && e.max == range.second,
                 "minmax_index entry of client " + std::to_string(e.source) + " iteration " +
                     std::to_string(e.iteration));
  }
  for (const plugin::PluginStats& p : pass.plugins) {
    report.check(p.errors == 0 && p.overruns == 0 && p.iterations == iterations,
                 "plugin " + p.name + " ran every iteration without error");
  }
}

/// Median over the rounds of each round's p50 and tail, so one disturbed
/// stretch of the run does not set the result.
std::pair<double, Tail> write_latency(const Pass& pass) {
  std::vector<double> p50s, tails;
  Tail tail;
  for (const std::vector<double>& round : pass.write_rounds) {
    p50s.push_back(median(round));
    tail = tail_of(round);
    tails.push_back(tail.value);
  }
  tail.value = median(tails);
  return {median(p50s), tail};
}

std::vector<double> plugin_ms_of(const Pass& pass) {
  std::vector<double> out;
  for (const core::IterationRecord& r : pass.stats.iterations) {
    if (r.iteration >= pass.warmup) out.push_back(r.plugin_seconds * 1e3);
  }
  return out;
}

std::vector<double> persist_write_ms_of(const Pass& pass) {
  std::vector<double> out;
  for (const core::IterationRecord& r : pass.stats.iterations) {
    if (r.iteration >= pass.warmup) out.push_back(r.write_seconds * 1e3);
  }
  return out;
}

/// A fresh output directory for one pass; removed after verification.
std::string fresh_dir(const Args& args, const char* tag) {
  const std::string dir = args.work_dir + "/out-" + std::to_string(::getpid()) + "-" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace

bool is_real_workload(const std::string& name) { return find_spec(name) != nullptr; }

void run_real(const Args& args, Report& report, Values& values, SpanRecorder* spans) {
  const Spec& spec = *find_spec(args.workload);
  const Inputs in = make_inputs(spec, args.seed);
  int iterations = std::max(2, static_cast<int>(std::lround(spec.iterations_per_second * args.seconds)));
  int warmup = warmup_of(spec);
  int compute_ms = spec.compute_ms;
  int setups = 8 * kSetupBurst;
  if (args.smoke) {
    iterations = spec.persist ? 2 : 20;
    warmup = 1;
    compute_ms /= 10;
    setups = 3;
  }

  if (spans == nullptr) {
    const std::string dir = fresh_dir(args, "run");
    const Pass p = run_pass(spec, in, iterations + warmup, warmup, setups, compute_ms, dir, nullptr);
    verify(spec, in, p, report);
    std::filesystem::remove_all(dir);

    const auto [write_p50, tail] = write_latency(p);
    report.note("write_tail_us is the median over " + std::to_string(p.write_rounds.size()) +
                " round(s) of p" + std::to_string(tail.percentile) + " of " +
                std::to_string(tail.samples) + " writes (" + std::to_string(tail.beyond) +
                " beyond it)");
    std::vector<double> all_writes;
    for (const std::vector<double>& round : p.write_rounds) {
      all_writes.insert(all_writes.end(), round.begin(), round.end());
    }
    std::sort(all_writes.begin(), all_writes.end());
    report.note("write latency over all measured writes: p10 " +
                std::to_string(percentile_sorted(all_writes, 10)) + " us, p25 " +
                std::to_string(percentile_sorted(all_writes, 25)) + " us, p75 " +
                std::to_string(percentile_sorted(all_writes, 75)) + " us, p90 " +
                std::to_string(percentile_sorted(all_writes, 90)) + " us");
    report.note("iterations " + std::to_string(iterations) + " measured + " +
                std::to_string(warmup) + " warm-up, " + std::to_string(kClients) +
                " clients x " + std::to_string(spec.vars) + " writes of " +
                std::to_string(in.elements * sizeof(float)) + " B, compute phase " +
                std::to_string(compute_ms) + " ms");
    values["write_p50_us"] = write_p50;
    values["write_tail_us"] = tail.value;
    values["writes_per_s"] = static_cast<double>(p.writes) / p.wall_s;
    values["persist_p50_ms"] = median(p.persist_ms);
    values["spare_fraction"] = p.spare_fraction;
    values["setup_s"] = median(p.setup_s);
    std::vector<double> sorted_setups = p.setup_s;
    std::sort(sorted_setups.begin(), sorted_setups.end());
    report.note("setup_s over " + std::to_string(sorted_setups.size()) + " set-ups: p10 " +
                std::to_string(percentile_sorted(sorted_setups, 10) * 1e6) + " us, p50 " +
                std::to_string(percentile_sorted(sorted_setups, 50) * 1e6) + " us, p90 " +
                std::to_string(percentile_sorted(sorted_setups, 90) * 1e6) + " us");
    values["sim_wall_s"] = p.wall_s;
    values["peak_rss_mb"] = peak_rss_mb();
    return;
  }

  // Traced run: an untraced pass, then the same work traced; the counter
  // metrics come from the untraced pass, the spans and the tracing
  // overhead from comparing the two.
  const int half = std::max(args.smoke ? iterations : 1, iterations / 2);
  const std::string dir_a = fresh_dir(args, "untraced");
  const Pass a = run_pass(spec, in, half + warmup, warmup, 3, compute_ms, dir_a, nullptr);
  verify(spec, in, a, report);
  std::filesystem::remove_all(dir_a);
  const std::string dir_b = fresh_dir(args, "traced");
  const Pass b = run_pass(spec, in, half + warmup, warmup, 3, compute_ms, dir_b, spans);
  verify(spec, in, b, report);
  std::filesystem::remove_all(dir_b);

  // Layer probes on one iteration's blocks, as the clients wrote them.
  const std::string probe_dir = fresh_dir(args, "probe");
  std::vector<std::vector<float>> stamped;
  for (int c = 0; c < kClients; ++c) {
    for (int v = 0; v < spec.vars; ++v) {
      stamped.push_back(in.base[c][v]);
      stamped.back()[0] = stamp(in.base[c][v][0], 0);
    }
  }
  ProbeInput probe;
  for (const auto& s : stamped) probe.blocks.push_back(bytes_of(s));
  probe.dims = {spec.nx, spec.ny, spec.nz};
  probe.buffer_bytes = spec.buffer_bytes;
  probe.clients = kClients;
  probe.out_dir = probe_dir;
  probe.smoke = args.smoke;
  SpanLane& lane = spans->lane();
  probe_shm(probe, &lane, values);
  probe_format(probe, &lane, values, report);
  probe_rooflines(probe, values, report);
  std::filesystem::remove_all(probe_dir);

  const double write_p50 = write_latency(a).first;
  values["core.write_overhead_us"] = write_p50 - values["shm.handoff_us"];
  values["core.end_iteration_us"] = median(a.end_us);
  values["core.alloc_stalls"] = static_cast<double>(a.alloc_stalls);
  values["core.queue_wait_ms"] = median(a.queue_wait_ms);
  values["persist.iteration_ms"] = median(persist_write_ms_of(a));
  double persist_s = 0.0;
  for (const core::IterationRecord& r : a.stats.iterations) persist_s += r.write_seconds;
  values["persist.gb_s"] = persist_s > 0.0 ? static_cast<double>(a.stats.persistency.raw_bytes) / persist_s / 1e9 : 0.0;
  const double busy = a.stats.busy_seconds;
  if (busy > 0.0) {
    values["persist.transform_share"] = a.stats.stages.of(iopath::StageKind::kTransform).seconds / busy;
    values["persist.storage_share"] = a.stats.stages.of(iopath::StageKind::kStorage).seconds / busy;
  }
  if (spec.plugins) {
    values["plugin.iteration_ms"] = median(plugin_ms_of(a));
    for (const plugin::PluginStats& p : a.plugins) values["plugin." + p.name + ".s"] = p.seconds;
  }
  const double traced_p50 = write_latency(b).first;
  values["trace.overhead_pct"] = write_p50 > 0.0 ? (traced_p50 / write_p50 - 1.0) * 100.0 : 0.0;
  report.note("tracing overhead: write p50 " + std::to_string(traced_p50) + " us traced vs " +
              std::to_string(write_p50) + " us untraced");
}

}  // namespace e2e
