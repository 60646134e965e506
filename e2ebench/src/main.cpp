// dmr_e2ebench: one run of one workload.
//
//   dmr_e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--smoke] [--work-dir <dir>]
//
// --trace 0 prints every end-to-end metric, --trace 1 every per-layer
// metric; the last line of standard output is the JSON result. The exit
// code is 0 only when every output check passed.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace {

using e2e::Values;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must list exactly the "end_to_end" and "per_layer" names of
// BENCHMARK.json (the self-test compares them).
const MetricDef kEndToEnd[] = {
    {"write_p50_us", "us"},     {"write_tail_us", "us"},  {"writes_per_s", "1/s"},
    {"persist_p50_ms", "ms"},   {"spare_fraction", "fraction"},
    {"setup_s", "s"},           {"peak_rss_mb", "MiB"},   {"sim_wall_s", "s"},
};

const MetricDef kPerLayer[] = {
    {"core.write_overhead_us", "us"},
    {"core.end_iteration_us", "us"},
    {"core.alloc_stalls", "count"},
    {"core.queue_wait_ms", "ms"},
    {"shm.handoff_us", "us"},
    {"shm.handoff_gb_s", "GB/s"},
    {"format.crc32_gb_s", "GB/s"},
    {"format.encode_identity_gb_s", "GB/s"},
    {"format.dh5_write_gb_s", "GB/s"},
    {"format.encode_lossless_mb_s", "MB/s"},
    {"format.compression_ratio", "ratio"},
    {"persist.iteration_ms", "ms"},
    {"persist.gb_s", "GB/s"},
    {"persist.transform_share", "fraction"},
    {"persist.storage_share", "fraction"},
    {"plugin.iteration_ms", "ms"},
    {"plugin.statistics.s", "s"},
    {"plugin.minmax_index.s", "s"},
    {"plugin.downsample.s", "s"},
    {"des.events", "count"},
    {"des.events_resume", "count"},
    {"des.events_callback", "count"},
    {"des.ns_per_event.fpp", "ns"},
    {"des.ns_per_event.collective", "ns"},
    {"des.ns_per_event.damaris", "ns"},
    {"des.timer_ns", "ns"},
    {"strategies.fpp.wall_s", "s"},
    {"strategies.collective.wall_s", "s"},
    {"strategies.damaris.wall_s", "s"},
    {"fs.creates", "count"},
    {"fs.write_ops", "count"},
    {"fs.lock_revocations", "count"},
    {"roofline.memcpy_gb_s", "GB/s"},
    {"roofline.disk_gb_s", "GB/s"},
    {"self.core_ms", "ms"},
    {"self.shm_ms", "ms"},
    {"self.format_ms", "ms"},
    {"self.des_ms", "ms"},
    {"self.strategies_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

int usage(const char* msg) {
  std::fprintf(stderr,
               "dmr_e2ebench: %s\nusage: dmr_e2ebench --workload "
               "<write-small|ckpt-24m|insitu-lossless|sim-kraken-9216> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--work-dir <dir>]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      args.smoke = true;
    } else if (a == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      args.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      args.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--work-dir" && has_value) {
      args.work_dir = argv[++i];
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  const bool sim = args.workload == "sim-kraken-9216";
  if (!sim && !e2e::is_real_workload(args.workload)) {
    return usage(("unknown workload '" + args.workload + "'").c_str());
  }
  if (args.seconds <= 0.0) return usage("--seconds must be positive");
  std::filesystem::create_directories(args.work_dir);

  e2e::Report report;
  report.note(std::string("build ") + E2E_BUILD_TYPE + ", " + E2E_COMPILER +
              ", DMR_CHECK=" + std::to_string(E2E_DMR_CHECK) +
              ", DMR_TRACE=" + std::to_string(E2E_DMR_TRACE) + "; workload " +
              args.workload + ", seed " + std::to_string(args.seed) +
              (args.smoke ? ", smoke sizes" : ""));
  Values values;
  std::unique_ptr<e2e::SpanRecorder> spans;
  if (args.trace) spans = std::make_unique<e2e::SpanRecorder>();
  if (sim) {
    e2e::run_sim(args, report, values, spans.get());
  } else {
    e2e::run_real(args, report, values, spans.get());
  }

  if (spans) {
    for (const auto& [layer, ms] :
         spans->self_ms({"core", "shm", "format", "des", "strategies"})) {
      values["self." + layer + "_ms"] = ms;
    }
    const std::string path = args.work_dir + "/trace-" + args.workload + ".json";
    report.check(spans->write(path), "write spans to " + path);
    report.note(std::to_string(spans->size()) + " spans recorded, " +
                std::to_string(std::min(spans->size(), e2e::SpanRecorder::kMaxWrittenSpans)) +
                " written to " + path);
  }
  for (const auto& m : args.trace ? std::vector<MetricDef>(std::begin(kPerLayer), std::end(kPerLayer))
                                  : std::vector<MetricDef>(std::begin(kEndToEnd), std::end(kEndToEnd))) {
    report.metric(m.name, values[m.name], m.unit);
  }
  report.note("error_rate " + std::to_string(report.attempted() == 0 ? 0.0
                                                  : static_cast<double>(report.failed()) /
                                                        static_cast<double>(report.attempted())) +
              " (" + std::to_string(report.failed()) + " failed of " +
              std::to_string(report.attempted()) + " attempted)");
  report.print();
  return report.correct() ? 0 : 1;
}
