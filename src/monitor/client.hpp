// MonitorClient — the protocol's client half (used by tools/dmr_top
// and the tests, NodeMonitor.ObservesLiveSimulation among them).
// Connects to the server's AF_UNIX socket, sends one-line commands and
// reads back parsed JSON lines with poll(2)-based timeouts, so a stuck
// or gone server degrades to a timeout instead of a hang.
//
// Thread-safety: one client object per thread.
#pragma once

#include <string>

#include "common/status.hpp"
#include "monitor/json.hpp"

namespace dmr::monitor {

class MonitorClient {
 public:
  MonitorClient() = default;
  ~MonitorClient();

  MonitorClient(const MonitorClient&) = delete;
  MonitorClient& operator=(const MonitorClient&) = delete;

  Status connect(const std::string& socket_path, int timeout_ms = 1000);
  void close();
  bool connected() const { return fd_ >= 0; }

  /// "snapshot" round-trip: sends the command, parses the reply line.
  Result<Json> snapshot(int timeout_ms = 1000);

  /// "subscribe [interval]" round-trip; after the OK ack, next() yields
  /// the stream.
  Status subscribe(int interval_ms = 0, int timeout_ms = 1000);

  /// "ping" round-trip.
  Status ping(int timeout_ms = 1000);

  /// Next JSON line from the server (stream frames or replies).
  Result<Json> next(int timeout_ms = 1000);

  // Low-level halves, for tests poking at the raw protocol.
  Status send_line(const std::string& line);
  Result<std::string> read_line(int timeout_ms);

 private:
  int fd_ = -1;
  std::string inbuf_;
};

}  // namespace dmr::monitor
