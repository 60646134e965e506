// Quickstart: the paper's §III-D example, in C++.
//
// One SMP node with three compute threads (clients) and one dedicated
// I/O core (the DamarisNode's server thread). Each client writes a 3-D
// variable with write() — one copy into shared memory on the client's
// own thread — then signals an event and ends the iteration. The
// dedicated core persists everything to one DH5 file per iteration
// while the clients compute the next step.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "damaris/damaris.hpp"

namespace {

// The external XML configuration (paper §III-B): layouts, variables and
// events live here so clients only push minimal descriptors.
const char* kConfigXml = R"(
<damaris>
  <buffer size="16777216" policy="partitioned"/>
  <dedicated cores="1"/>
  <layout name="my_layout" type="real" dimensions="64,16,2"/>
  <variable name="my_variable" layout="my_layout"/>
  <event name="my_event" action="stats" scope="local"/>
</damaris>)";

}  // namespace

int main() {
  auto cfg = dmr::config::Config::from_string(kConfigXml);
  if (!cfg.is_ok()) {
    std::fprintf(stderr, "config error: %s\n",
                 cfg.status().to_string().c_str());
    return 1;
  }

  dmr::core::NodeOptions opts;
  opts.output_dir = "quickstart_out";
  opts.file_prefix = "quickstart";

  const int kClients = 3;
  dmr::core::DamarisNode node(std::move(cfg.value()), kClients, opts);
  if (auto s = node.start(); !s.is_ok()) {
    std::fprintf(stderr, "start failed: %s\n", s.to_string().c_str());
    return 1;
  }

  std::vector<std::thread> compute;
  for (int c = 0; c < kClients; ++c) {
    compute.emplace_back([&node, c] {
      dmr::core::Client client = node.client(c);
      std::vector<float> my_data(64 * 16 * 2);
      for (std::int64_t step = 0; step < 3; ++step) {
        // "Computation": fill the array with something per-step.
        for (std::size_t i = 0; i < my_data.size(); ++i) {
          my_data[i] = static_cast<float>(step * 100 + c) +
                       0.001f * static_cast<float>(i);
        }
        // df_write + df_signal, as in the paper's Fortran example. The
        // buffer is reusable the moment write() returns; its status is
        // checked to keep the example honest about failures.
        auto s = client.write("my_variable", step,
                              std::as_bytes(std::span<const float>(my_data)));
        if (!s.is_ok()) {
          std::fprintf(stderr, "write failed: %s\n", s.to_string().c_str());
          return;
        }
        (void)client.signal("my_event", step);
        (void)client.end_iteration(step);
      }
      (void)client.finalize();
    });
  }
  for (auto& t : compute) t.join();
  (void)node.stop();

  // What did the dedicated core do while we computed?
  const auto stats = node.stats();
  std::printf("dedicated core: %zu iterations persisted, %llu datasets, "
              "%s raw -> %s files\n",
              stats.iterations.size(),
              static_cast<unsigned long long>(
                  stats.persistency.datasets_written),
              dmr::format_bytes(stats.persistency.raw_bytes).c_str(),
              dmr::format_bytes(stats.persistency.stored_bytes).c_str());
  for (const auto& [key, value] : node.analytics()) {
    std::printf("analytics %-20s = %.3f\n", key.c_str(), value);
  }
  const auto cs = node.client_stats(0);
  std::printf("client 0: %llu writes, total %.3f ms inside write()\n",
              static_cast<unsigned long long>(cs.writes),
              cs.write_seconds * 1e3);

  // The output is a self-describing DH5 file, readable back:
  auto reader = dmr::format::Dh5Reader::open(
      "quickstart_out/quickstart_node0_it2.dh5");
  if (reader.is_ok()) {
    std::printf("it2 file has %zu datasets; first is '%s' from source %d\n",
                reader.value().entries().size(),
                reader.value().entries()[0].info.name.c_str(),
                reader.value().entries()[0].info.source);
  }
  return 0;
}
