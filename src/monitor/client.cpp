#include "monitor/client.hpp"

#include <cerrno>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/clock.hpp"

namespace dmr::monitor {

namespace {

Status errno_error(const std::string& what) {
  return io_error(what + ": " + std::strerror(errno));
}

std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             WallClock::now().time_since_epoch())
      .count();
}

}  // namespace

MonitorClient::~MonitorClient() { close(); }

Status MonitorClient::connect(const std::string& socket_path,
                              int timeout_ms) {
  (void)timeout_ms;  // AF_UNIX connect doesn't block on handshakes
  if (connected()) return failed_precondition("already connected");
  sockaddr_un addr{};
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    return invalid_argument("socket path too long: " + socket_path);
  }
  fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) return errno_error("socket(AF_UNIX)");
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    const Status s = errno_error("connect(" + socket_path + ")");
    close();
    return s;
  }
  inbuf_.clear();
  return Status::ok();
}

void MonitorClient::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  inbuf_.clear();
}

Status MonitorClient::send_line(const std::string& line) {
  if (!connected()) return failed_precondition("not connected");
  std::string out = line;
  out.push_back('\n');
  std::size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n =
        ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return errno_error("send");
    }
    sent += static_cast<std::size_t>(n);
  }
  return Status::ok();
}

Result<std::string> MonitorClient::read_line(int timeout_ms) {
  if (!connected()) return Status(failed_precondition("not connected"));
  const std::int64_t deadline = now_ms() + timeout_ms;
  while (true) {
    const std::size_t nl = inbuf_.find('\n');
    if (nl != std::string::npos) {
      std::string line = inbuf_.substr(0, nl);
      inbuf_.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    const std::int64_t remaining = deadline - now_ms();
    if (remaining <= 0) {
      return Status(io_error("monitor read timed out"));
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(remaining));
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Status(errno_error("poll"));
    }
    if (rc == 0) return Status(io_error("monitor read timed out"));
    char buf[4096];
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n == 0) return Status(io_error("monitor server closed connection"));
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return Status(errno_error("recv"));
    }
    inbuf_.append(buf, static_cast<std::size_t>(n));
  }
}

Result<Json> MonitorClient::next(int timeout_ms) {
  auto line = read_line(timeout_ms);
  if (!line.is_ok()) return line.status();
  return Json::parse(line.value());
}

Result<Json> MonitorClient::snapshot(int timeout_ms) {
  if (Status s = send_line("snapshot"); !s.is_ok()) return s;
  return next(timeout_ms);
}

Status MonitorClient::subscribe(int interval_ms, int timeout_ms) {
  const std::string cmd =
      interval_ms > 0 ? "subscribe " + std::to_string(interval_ms)
                      : "subscribe";
  if (Status s = send_line(cmd); !s.is_ok()) return s;
  auto reply = next(timeout_ms);
  if (!reply.is_ok()) return reply.status();
  if (!reply.value().at("ok").as_bool()) {
    return io_error("subscribe rejected: " + reply.value().dump());
  }
  return Status::ok();
}

Status MonitorClient::ping(int timeout_ms) {
  if (Status s = send_line("ping"); !s.is_ok()) return s;
  auto reply = next(timeout_ms);
  if (!reply.is_ok()) return reply.status();
  if (reply.value().at("type").as_string() != "pong") {
    return io_error("unexpected ping reply: " + reply.value().dump());
  }
  return Status::ok();
}

}  // namespace dmr::monitor
