// MonitorServer — the live observability endpoint (DESIGN.md §15): a
// single-threaded poll(2) event loop over an AF_UNIX stream socket
// serving the line-delimited JSON protocol:
//
//   client -> server (one command per line)
//     ping                     liveness probe
//     snapshot                 one snapshot now
//     subscribe [interval_ms]  periodic snapshots until unsubscribe
//     unsubscribe              stop the stream, keep the connection
//     quit                     close the connection
//
//   server -> client (one JSON object per line)
//     {"type":"pong","ok":true}
//     {"type":"snapshot", ...}                     (snapshot.hpp schema)
//     {"type":"subscribed","ok":true,"interval_ms":N}
//     {"type":"error","ok":false,"error":"..."}
//
// The server pulls data through a SnapshotFn — a closure assembling a
// MonitorSnapshot from whatever is being observed (node_source.hpp for
// a live DamarisNode; benches can feed anything) — stamps sequence
// numbers and uptime, applies the SLO policy and appends alerts. It
// turns the trace layer's post-mortem analytics into continuous
// monitoring: the same JitterSummary percentiles, streamed mid-run.
//
// Client lifecycle is fully defensive: disconnects mid-stream (POLLHUP,
// EPIPE, ECONNRESET) close that client and nothing else; slow readers
// are buffered up to a bound and then dropped.
//
// Thread-safety: start() spawns the loop thread; stop() (and the
// destructor) wake it via a self-pipe and join. stats() may be called
// from any thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/status.hpp"
#include "common/thread_annotations.hpp"
#include "monitor/snapshot.hpp"

namespace dmr::monitor {

struct MonitorOptions {
  /// AF_UNIX socket path (unlinked + rebound on start). Mind the
  /// sockaddr_un limit (~107 bytes).
  std::string socket_path;
  /// Streaming interval for `subscribe` without an argument.
  int default_interval_ms = 100;
  /// SLO thresholds applied to every emitted snapshot.
  SloPolicy slo;
  /// Connections beyond this are accepted and immediately closed.
  int max_clients = 32;
  /// A client whose unread output exceeds this is dropped.
  std::size_t max_pending_bytes = 1 << 20;
};

class MonitorServer {
 public:
  using SnapshotFn = std::function<MonitorSnapshot()>;

  MonitorServer(MonitorOptions opts, SnapshotFn source);
  ~MonitorServer();

  MonitorServer(const MonitorServer&) = delete;
  MonitorServer& operator=(const MonitorServer&) = delete;

  /// Binds, listens and spawns the event loop. kIoError with the errno
  /// text on socket failures.
  Status start();

  /// Wakes the loop, joins the thread, closes every fd and unlinks the
  /// socket. Idempotent.
  void stop();

  bool running() const;
  const std::string& socket_path() const { return opts_.socket_path; }

  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t disconnected = 0;  // includes mid-stream drops
    std::uint64_t snapshots_sent = 0;
    std::uint64_t commands = 0;
    std::uint64_t bad_commands = 0;
    std::uint64_t alerts_raised = 0;
  };
  Stats stats() const;

 private:
  struct Connection {
    int fd = -1;
    std::string inbuf;
    std::string outbuf;
    bool subscribed = false;
    int interval_ms = 100;
    /// Wall milliseconds (loop clock) when the next periodic snapshot
    /// is due.
    std::int64_t next_due_ms = 0;
  };

  void loop();
  void handle_line(Connection& c, const std::string& line);
  /// Assembles + stamps one snapshot line (shared by `snapshot` and the
  /// periodic stream).
  std::string render_snapshot();
  void queue_line(Connection& c, const std::string& line);
  /// Flushes c.outbuf; returns false when the client must be dropped.
  bool flush(Connection& c);

  MonitorOptions opts_;
  SnapshotFn source_;
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::int64_t sequence_ = 0;  // loop thread only
  WallClock::time_point started_at_;

  mutable Mutex stats_mutex_;
  Stats stats_ DMR_GUARDED_BY(stats_mutex_);
};

}  // namespace dmr::monitor
