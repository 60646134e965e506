// Cluster playground: run the paper's three I/O approaches side by side
// on a simulated platform of your choosing and watch where the jitter
// comes from.
//
// Usage: ./build/examples/cluster_playground [platform] [cores] [phases]
//                                            [--trace-out <file>]
//   platform: kraken | grid5000 | blueprint   (default kraken)
//   cores:    total cores, a positive multiple of the platform's
//             cores/node: 12, 24 or 16 (default 1152, 672 or 1024)
//   phases:   write phases to simulate, at least 1 (default 4)
//   --trace-out <file>: record the Damaris run as Chrome trace_event
//             JSON (load in Perfetto or chrome://tracing).
// Any other argument prints the usage and exits 2; a trace that cannot
// be written exits 1.
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "experiments/experiments.hpp"
#include "trace/chrome_export.hpp"
#include "trace/tracer.hpp"

using namespace dmr;
using strategies::RunConfig;
using strategies::StrategyKind;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: cluster_playground [kraken|grid5000|blueprint] "
               "[cores] [phases] [--trace-out <file>]\n"
               "  cores:  a positive multiple of the platform's cores per "
               "node\n"
               "  phases: at least 1\n");
  return 2;
}

struct Preset {
  const char* name;
  int default_cores;
  cluster::PlatformSpec (*platform)();
  RunConfig (*config)(StrategyKind kind, int cores, int phases);
};

const Preset kPresets[] = {
    {"kraken", 1152, cluster::kraken,
     [](StrategyKind kind, int cores, int phases) {
       return experiments::kraken_config(kind, cores, phases, 1);
     }},
    {"grid5000", 672, cluster::grid5000,
     [](StrategyKind kind, int cores, int phases) {
       return experiments::grid5000_config(kind, cores, phases, 1);
     }},
    {"blueprint", 1024, cluster::blueprint,
     [](StrategyKind kind, int cores, int phases) {
       return experiments::blueprint_config(kind, cores, phases, 1, 64.0);
     }},
};

/// All of `s` as a positive int; 0 if it is anything else.
int positive_int(const std::string& s) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (s.empty() || *end != '\0' || errno != 0 || v <= 0 || v > INT_MAX) {
    return 0;
  }
  return static_cast<int>(v);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args;
  const char* trace_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--trace-out") {
      if (i + 1 == argc) return usage();
      trace_path = argv[++i];
    } else {
      args.push_back(argv[i]);
    }
  }
  if (args.size() > 3) return usage();

  const std::string platform = args.empty() ? "kraken" : args[0];
  const Preset* preset = nullptr;
  for (const Preset& p : kPresets) {
    if (platform == p.name) preset = &p;
  }
  if (preset == nullptr) return usage();
  const int cores =
      args.size() > 1 ? positive_int(args[1]) : preset->default_cores;
  const int phases = args.size() > 2 ? positive_int(args[2]) : 4;
  if (cores == 0 || cores % preset->platform().node.cores != 0 ||
      phases == 0) {
    return usage();
  }

  std::unique_ptr<trace::Tracer> tracer;
  if (trace_path != nullptr) tracer = std::make_unique<trace::Tracer>();

  std::printf("platform=%s cores=%d phases=%d\n\n", platform.c_str(), cores,
              phases);
  Table t({"approach", "write visible to app (s)", "phase max (s)",
           "aggregate throughput", "app run time (s)", "stream switches",
           "lock revocations"});
  for (StrategyKind kind :
       {StrategyKind::kFilePerProcess, StrategyKind::kCollectiveIo,
        StrategyKind::kDamaris}) {
    RunConfig cfg = preset->config(kind, cores, phases);
    // Only the Damaris run is traced: its rank, writer and fs-server
    // lanes stay readable, and one run makes one timeline.
    if (kind == StrategyKind::kDamaris) cfg.tracer = tracer.get();
    auto res = run_strategy(cfg);
    t.add_row({strategies::strategy_name(kind),
               Table::num(res.rank_write_seconds.mean(), 3),
               Table::num(res.phase_seconds.max(), 2),
               format_rate(res.aggregate_throughput),
               Table::num(res.total_runtime, 1),
               std::to_string(res.fs_stats.stream_switches),
               std::to_string(res.fs_stats.lock_revocations)});
    if (kind == StrategyKind::kDamaris) {
      std::printf("damaris dedicated cores: write %.2f s/iter, spare "
                  "fraction %.3f\n",
                  res.dedicated_write_seconds.mean(),
                  res.dedicated_spare_fraction);
    }
  }
  std::printf("\n");
  t.print();
  std::printf(
      "\nReading the table: the two standard approaches expose the full "
      "storage-stack contention (stream switches at the servers, lock "
      "ping-pong for the shared file) to the application; Damaris turns "
      "the visible cost into a shared-memory copy and absorbs the rest "
      "in the dedicated cores' spare time.\n");

  if (tracer) {
    const Status s = trace::write_chrome_trace(trace_path, *tracer);
    if (!s.is_ok()) {
      std::fprintf(stderr, "trace: %s\n", s.message().c_str());
      return 1;
    }
    std::printf("\ntrace: wrote %s (%llu events, %llu dropped)\n", trace_path,
                static_cast<unsigned long long>(tracer->recorded()),
                static_cast<unsigned long long>(tracer->overwritten()));
  }
  return 0;
}
