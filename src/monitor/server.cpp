#include "monitor/server.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/log.hpp"
#include "trace/event.hpp"
#include "trace/tracer.hpp"

namespace dmr::monitor {

namespace {

Status errno_error(const std::string& what) {
  return io_error(what + ": " + std::strerror(errno));
}

Status set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return errno_error("fcntl(O_NONBLOCK)");
  }
  return Status::ok();
}

std::int64_t ms_since(WallClock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             WallClock::now() - t0)
      .count();
}

}  // namespace

MonitorServer::MonitorServer(MonitorOptions opts, SnapshotFn source)
    : opts_(std::move(opts)), source_(std::move(source)) {}

MonitorServer::~MonitorServer() { stop(); }

bool MonitorServer::running() const {
  return running_.load(std::memory_order_acquire);
}

Status MonitorServer::start() {
  if (running()) return failed_precondition("monitor already running");
  if (opts_.socket_path.empty()) {
    return invalid_argument("monitor needs a socket path");
  }
  sockaddr_un addr{};
  if (opts_.socket_path.size() >= sizeof(addr.sun_path)) {
    return invalid_argument("monitor socket path too long: " +
                            opts_.socket_path);
  }

  listen_fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return errno_error("socket(AF_UNIX)");
  if (Status s = set_nonblocking(listen_fd_); !s.is_ok()) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, opts_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  ::unlink(opts_.socket_path.c_str());
  if (bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
           sizeof addr) < 0) {
    const Status s = errno_error("bind(" + opts_.socket_path + ")");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (listen(listen_fd_, 8) < 0) {
    const Status s = errno_error("listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(opts_.socket_path.c_str());
    return s;
  }

  int pipe_fds[2];
  if (pipe(pipe_fds) < 0) {
    const Status s = errno_error("pipe");
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(opts_.socket_path.c_str());
    return s;
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];

  sequence_ = 0;
  started_at_ = WallClock::now();
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { loop(); });
  DMR_LOG(kInfo, "monitor") << "serving on " << opts_.socket_path;
  return Status::ok();
}

void MonitorServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  const char wake = 'q';
  // A failed wake write can only mean the pipe is already gone; the
  // loop also exits on the running_ flag at its next poll timeout.
  if (::write(wake_write_fd_, &wake, 1) < 0) {
    DMR_LOG(kWarn, "monitor") << "wake write failed: " << std::strerror(errno);
  }
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
  listen_fd_ = wake_read_fd_ = wake_write_fd_ = -1;
  ::unlink(opts_.socket_path.c_str());
}

MonitorServer::Stats MonitorServer::stats() const {
  MutexLock lock(stats_mutex_);
  return stats_;
}

std::string MonitorServer::render_snapshot() {
  MonitorSnapshot snap = source_ ? source_() : MonitorSnapshot{};
  snap.sequence = ++sequence_;
  snap.uptime_seconds =
      static_cast<double>(ms_since(started_at_)) / 1000.0;
  std::vector<std::string> alerts = evaluate_slo(snap, opts_.slo);
  for (std::string& a : alerts) snap.alerts.push_back(std::move(a));
  if (!snap.alerts.empty()) {
    MutexLock lock(stats_mutex_);
    stats_.alerts_raised += snap.alerts.size();
  }
  if (trace::Tracer* tracer = trace::current();
      tracer && tracer->enabled(trace::Category::kMonitor)) {
    tracer->record_instant({trace::EntityType::kNode, 0},
                           trace::Category::kMonitor, "monitor.snapshot",
                           tracer->wall_now());
  }
  {
    MutexLock lock(stats_mutex_);
    ++stats_.snapshots_sent;
  }
  return snap.to_json();
}

void MonitorServer::queue_line(Connection& c, const std::string& line) {
  c.outbuf += line;
  c.outbuf.push_back('\n');
}

bool MonitorServer::flush(Connection& c) {
  while (!c.outbuf.empty()) {
    const ssize_t n =
        ::send(c.fd, c.outbuf.data(), c.outbuf.size(), MSG_NOSIGNAL);
    if (n > 0) {
      c.outbuf.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return c.outbuf.size() <= opts_.max_pending_bytes;
    }
    return false;  // EPIPE / ECONNRESET / anything else: drop
  }
  return true;
}

void MonitorServer::handle_line(Connection& c, const std::string& line) {
  {
    MutexLock lock(stats_mutex_);
    ++stats_.commands;
  }
  // First token is the command, the optional rest its argument.
  std::string cmd = line;
  std::string arg;
  if (const std::size_t sp = line.find(' '); sp != std::string::npos) {
    cmd = line.substr(0, sp);
    arg = line.substr(sp + 1);
  }
  if (cmd == "ping") {
    queue_line(c, "{\"type\":\"pong\",\"ok\":true}");
  } else if (cmd == "snapshot") {
    queue_line(c, render_snapshot());
  } else if (cmd == "subscribe") {
    int interval = opts_.default_interval_ms;
    if (!arg.empty()) {
      char* endp = nullptr;
      const long v = std::strtol(arg.c_str(), &endp, 10);
      if (endp == arg.c_str() || *endp != '\0' || v < 1) {
        MutexLock lock(stats_mutex_);
        ++stats_.bad_commands;
        queue_line(c,
                   "{\"type\":\"error\",\"ok\":false,"
                   "\"error\":\"bad subscribe interval\"}");
        return;
      }
      interval = static_cast<int>(v);
    }
    c.subscribed = true;
    c.interval_ms = interval;
    c.next_due_ms = ms_since(started_at_);  // first snapshot immediately
    queue_line(c, "{\"type\":\"subscribed\",\"ok\":true,\"interval_ms\":" +
                      std::to_string(interval) + "}");
  } else if (cmd == "unsubscribe") {
    c.subscribed = false;
    queue_line(c, "{\"type\":\"unsubscribed\",\"ok\":true}");
  } else if (cmd.empty()) {
    // Bare newline: ignore.
  } else if (cmd == "quit") {
    queue_line(c, "{\"type\":\"bye\",\"ok\":true}");
    // Flushed below; the loop closes on the next read returning 0 or
    // the client hanging up. Mark as unsubscribed so no more frames go
    // out.
    c.subscribed = false;
  } else {
    MutexLock lock(stats_mutex_);
    ++stats_.bad_commands;
    queue_line(c, "{\"type\":\"error\",\"ok\":false,\"error\":\"unknown "
                  "command '" + cmd + "'\"}");
  }
}

void MonitorServer::loop() {
  std::vector<Connection> clients;
  std::vector<pollfd> fds;

  auto drop_client = [&](std::size_t idx) {
    ::close(clients[idx].fd);
    clients.erase(clients.begin() + static_cast<std::ptrdiff_t>(idx));
    MutexLock lock(stats_mutex_);
    ++stats_.disconnected;
  };

  while (running_.load(std::memory_order_acquire)) {
    fds.clear();
    fds.push_back({wake_read_fd_, POLLIN, 0});
    fds.push_back({listen_fd_, POLLIN, 0});
    const std::int64_t now_ms = ms_since(started_at_);
    int timeout_ms = 200;
    for (const Connection& c : clients) {
      short events = POLLIN;
      if (!c.outbuf.empty()) events |= POLLOUT;
      fds.push_back({c.fd, events, 0});
      if (c.subscribed) {
        const std::int64_t wait = c.next_due_ms - now_ms;
        timeout_ms = static_cast<int>(
            std::max<std::int64_t>(0, std::min<std::int64_t>(timeout_ms, wait)));
      }
    }

    // Only this many clients have a pollfd this round; connections
    // accepted below are appended past this index and serviced (and
    // polled) from the next round on.
    const std::size_t polled = clients.size();
    const int rc = ::poll(fds.data(), fds.size(), timeout_ms);
    if (!running_.load(std::memory_order_acquire)) break;
    if (rc < 0) {
      if (errno == EINTR) continue;
      DMR_LOG(kWarn, "monitor") << "poll failed: " << std::strerror(errno);
      break;
    }

    if ((fds[0].revents & POLLIN) != 0) break;  // wake pipe: stop()

    if ((fds[1].revents & POLLIN) != 0) {
      while (true) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) break;
        if (static_cast<int>(clients.size()) >= opts_.max_clients ||
            !set_nonblocking(fd).is_ok()) {
          ::close(fd);
          continue;
        }
        Connection c;
        c.fd = fd;
        c.interval_ms = opts_.default_interval_ms;
        clients.push_back(std::move(c));
        MutexLock lock(stats_mutex_);
        ++stats_.accepted;
      }
    }

    // Service the polled clients. fds[i + 2] maps to clients[i] of the
    // snapshot taken when fds was built — clients accepted this round
    // sit past `polled` and have no pollfd yet. Iterate backwards so
    // drops don't shift unprocessed entries (erasing i < polled shifts
    // the appended tail down, which is fine: it isn't visited).
    for (std::size_t i = polled; i-- > 0;) {
      const pollfd& pfd = fds[i + 2];
      Connection& c = clients[i];
      bool drop = false;

      if ((pfd.revents & (POLLERR | POLLNVAL)) != 0) drop = true;

      if (!drop && (pfd.revents & POLLIN) != 0) {
        char buf[4096];
        while (true) {
          const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
          if (n > 0) {
            c.inbuf.append(buf, static_cast<std::size_t>(n));
            if (c.inbuf.size() > 65536) {  // protocol abuse: lines are tiny
              drop = true;
              break;
            }
            continue;
          }
          if (n == 0) {
            drop = true;  // orderly shutdown
          } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
            drop = true;
          }
          break;
        }
        std::size_t start = 0;
        while (!drop) {
          const std::size_t nl = c.inbuf.find('\n', start);
          if (nl == std::string::npos) break;
          std::string line = c.inbuf.substr(start, nl - start);
          if (!line.empty() && line.back() == '\r') line.pop_back();
          handle_line(c, line);
          start = nl + 1;
        }
        if (start > 0) c.inbuf.erase(0, start);
      }

      // POLLHUP alone still allows draining queued input above; after
      // that the connection is gone.
      if (!drop && (pfd.revents & POLLHUP) != 0) drop = true;

      if (!drop && c.subscribed) {
        const std::int64_t now2 = ms_since(started_at_);
        if (now2 >= c.next_due_ms) {
          queue_line(c, render_snapshot());
          c.next_due_ms = now2 + c.interval_ms;
        }
      }

      if (!drop && !flush(c)) drop = true;
      if (drop) drop_client(i);
    }
  }

  for (const Connection& c : clients) ::close(c.fd);
}

}  // namespace dmr::monitor
