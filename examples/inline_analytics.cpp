// Inline analytics on the dedicated core — the "smart actions" of §III-A
// and the spare-time uses of §IV-D.
//
// A custom action registered with the event processing engine detects
// the strongest updraft in the simulated storm *while the simulation
// keeps computing*: the compute threads only signal an event; the
// dedicated core scans the shared-memory blocks, publishes analytics and
// decides (data-dependently!) whether the iteration is "interesting"
// enough to persist — the kind of content-based I/O policy the paper
// argues low-level I/O schedulers cannot implement.
//
// Build & run:  ./build/examples/inline_analytics
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "cm1/solver.hpp"
#include "config/config.hpp"
#include "core/damaris.hpp"

namespace {

const char* kConfigXml = R"(
<damaris>
  <buffer size="67108864" policy="partitioned"/>
  <layout name="subdomain" type="float32" dimensions="32,32,16"/>
  <variable name="w" layout="subdomain"/>
  <variable name="theta" layout="subdomain"/>
  <event name="scan_updraft" action="detect_updraft" scope="global"/>
</damaris>)";

}  // namespace

int main() {
  auto cfg = dmr::config::Config::from_string(kConfigXml);
  if (!cfg.is_ok()) {
    std::fprintf(stderr, "%s\n", cfg.status().to_string().c_str());
    return 1;
  }

  dmr::cm1::Cm1Config cm1_cfg;
  cm1_cfg.nx = 64;
  cm1_cfg.ny = 64;
  cm1_cfg.nz = 16;
  cm1_cfg.px = 2;
  cm1_cfg.py = 2;
  cm1_cfg.buoyancy = 0.08;  // make the bubble rise fast
  const int ncores = 4;

  dmr::core::NodeOptions opts;
  opts.output_dir = "analytics_out";
  opts.persist_on_end_iteration = false;  // the plugin decides instead
  dmr::core::DamarisNode node(std::move(cfg.value()), ncores, opts);

  // The user-provided action: runs on the dedicated core and reads every
  // client's block of the iteration in place, through the same block
  // views the <plugins> chain reads.
  std::atomic<int> persisted{0};
  node.plugins().register_action(
      "detect_updraft", [&](dmr::core::EventContext& ctx) {
        float w_max = 0.0f;
        for (const dmr::plugin::BlockView& block : ctx.blocks) {
          if (block.variable != "w") continue;
          const float* vals =
              reinterpret_cast<const float*>(block.data.data());
          const std::size_t n = block.data.size() / sizeof(float);
          for (std::size_t i = 0; i < n; ++i) {
            if (vals[i] > w_max) w_max = vals[i];
          }
        }
        ctx.node.publish_analytic(
            "w.max.it" + std::to_string(ctx.iteration), w_max);
        // Content-based persistence: only keep iterations with a real
        // updraft ("important datasets written in priority", §III-A).
        if (w_max > 0.02f) {
          // Reuse the builtin write action through the registry.
          (*ctx.node.plugins().find("write"))(ctx);
          persisted.fetch_add(1);
        }
      });

  if (auto s = node.start(); !s.is_ok()) {
    std::fprintf(stderr, "%s\n", s.to_string().c_str());
    return 1;
  }

  dmr::cm1::Cm1Solver solver(cm1_cfg);
  const int kSteps = 12;
  std::vector<std::thread> compute;
  std::vector<std::vector<float>> packs(ncores,
                                        std::vector<float>(32 * 32 * 16));
  for (int c = 0; c < ncores; ++c) {
    compute.emplace_back([&, c] {
      auto client = node.client(c);
      for (int step = 0; step < kSteps; ++step) {
        // (halo exchange + step are serialized by the main thread below
        // in a real app; here each thread steps its own subdomain and
        // the fields drift slightly — fine for a demo of the plugin.)
        solver.step(c);
        solver.pack_field(c, 3 /*w*/, packs[c]);
        if (auto s = client.write(
                "w", step, std::as_bytes(std::span<const float>(packs[c])));
            !s.is_ok()) {
          std::fprintf(stderr, "write: %s\n", s.to_string().c_str());
        }
        (void)client.signal("scan_updraft", step);
        (void)client.end_iteration(step);
      }
      (void)client.finalize();
    });
  }
  for (auto& t : compute) t.join();
  (void)node.stop();

  std::printf("iterations: %d, persisted by the plugin: %d\n", kSteps,
              persisted.load());
  int shown = 0;
  for (const auto& [key, value] : node.analytics()) {
    if (shown++ < 6) std::printf("%-14s = %.5f\n", key.c_str(), value);
  }
  std::printf("dedicated core spare fraction: %.2f\n",
              node.stats().spare_fraction());
  return 0;
}
