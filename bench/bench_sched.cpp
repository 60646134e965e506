// Adaptive-scheduling harness: static §IV-D slots vs the trace-fed
// adaptive controller (sched/adaptive.hpp), on a balanced CM1 workload
// and an AMR-style imbalanced one, plus a bursty checkpoint/restart
// exercise of the client write API against the real middleware with DH5
// read-back. Emits one machine-readable BENCH_sched.json.
//
// Scenarios (Kraken platform, 2304 cores, six write phases):
//   - balanced      kraken_workload: every rank emits the same volume.
//                   Static slots are already near-optimal here; the
//                   adaptive plan must match them within noise.
//   - imbalanced    amr_workload (lognormal sigma 1.0): a few refined
//                   subdomains dominate each phase. Uniform static
//                   slots overflow under the heavy writers, so storage
//                   windows collide and throughput drops; the adaptive
//                   controller re-widens slots proportionally to the
//                   observed load and recovers it.
//   - checkpoint    bursty checkpoint/restart against the real
//                   DamarisNode: every few steps each client writes its
//                   checkpoint variables in order, then a simulated
//                   restart reads every block back via Dh5Reader and
//                   verifies the payloads byte-for-byte.
//
// Usage: bench_sched [output.json] [--check]
//   --check exits nonzero unless the adaptive scheduler beats static
//   slots on the imbalanced workload, matches them on the balanced one,
//   runs are seed-deterministic, and the checkpoint round-trip is
//   byte-clean (used by scripts/check.sh --sched).
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench_util.hpp"
#include "cm1/workload.hpp"
#include "core/damaris.hpp"
#include "experiments/experiments.hpp"
#include "format/dh5.hpp"
#include "strategies/strategy.hpp"

namespace {

using namespace dmr;

// §IV-D regime (same platform/scale as ablate_scheduling): 2304 cores
// (192 nodes) at the paper's ~230 s iteration cadence, writing every 4
// iterations — the schedule horizon can hold the cohort's serialized
// writes, which is the premise of slot scheduling. Six write phases
// give the controller's EMA time to lock onto the persistent AMR
// imbalance.
constexpr int kCores = 2304;
constexpr int kWriteInterval = 4;
constexpr int kIterations = 6 * kWriteInterval;
constexpr double kIterationSeconds = 230.0;
constexpr double kImbalanceSigma = 2.0;
constexpr std::uint64_t kSeed = 2012;  // the canonical experiment seed

struct SimOutcome {
  double throughput = 0.0;        // paper-style aggregate bytes/s
  double dedicated_mean_s = 0.0;  // mean dedicated-core storage time
  double dedicated_p95_s = 0.0;
  double schedule_wait_s = 0.0;  // total Schedule-stage wait
  int retunes = 0;
  int active_slots = 0;
};

SimOutcome run_sim(double imbalance, bool adaptive) {
  strategies::RunConfig cfg = experiments::kraken_config(
      strategies::StrategyKind::kDamaris, kCores, kIterations,
      kWriteInterval, kIterationSeconds, kSeed);
  if (imbalance > 0.0) {
    cfg.workload = cm1::amr_workload(true, imbalance, kIterationSeconds);
    cfg.workload.write_interval = kWriteInterval;
  }
  cfg.damaris.slot_scheduling = !adaptive;
  cfg.damaris.adaptive_scheduling = adaptive;
  const strategies::RunResult res = strategies::run_strategy(cfg);

  SimOutcome out;
  out.throughput = res.aggregate_throughput;
  out.dedicated_mean_s = res.dedicated_write_seconds.mean();
  out.dedicated_p95_s = res.dedicated_write_seconds.percentile(95.0);
  out.schedule_wait_s =
      res.stage_stats.of(iopath::StageKind::kSchedule).seconds;
  out.retunes = res.schedule_retunes;
  out.active_slots = res.active_slots;
  return out;
}

// ------------------------------------------------- checkpoint/restart

constexpr int kCkptClients = 3;
constexpr int kCkptSteps = 12;
constexpr int kCkptEvery = 4;  // a burst every 4 steps, quiet otherwise
constexpr int kCkptVars = 3;   // dependence-chained variables per burst

const char* kCkptXml = R"(
<damaris>
  <buffer size="16777216" policy="firstfit"/>
  <layout name="grid" type="float32" dimensions="64,64"/>
  <variable name="rho" layout="grid"/>
  <variable name="u" layout="grid"/>
  <variable name="e" layout="grid"/>
</damaris>)";

const char* kCkptVarNames[kCkptVars] = {"rho", "u", "e"};

struct CkptOutcome {
  bool ok = false;           // every write published, every step drained
  bool round_trip = false;   // restart read-back matched byte-for-byte
  int bursts = 0;
  int blocks_written = 0;
  int blocks_verified = 0;
  std::string detail;
};

std::vector<std::byte> ckpt_payload(int client, int step, int var) {
  std::vector<std::byte> data(64 * 64 * 4);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(
        (i + 31u * static_cast<unsigned>(client) +
         97u * static_cast<unsigned>(step) +
         131u * static_cast<unsigned>(var)) &
        0xff);
  }
  return data;
}

/// Writes checkpoint bursts through Client::write, then restarts:
/// re-opens every emitted DH5 file and verifies each block against the
/// payload the client wrote.
CkptOutcome run_checkpoint_restart() {
  CkptOutcome out;
  const auto dir = std::filesystem::temp_directory_path() /
                   ("bench_sched_ckpt_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  auto cfg = config::Config::from_string(kCkptXml);
  if (!cfg.is_ok()) {
    out.detail = "config: " + cfg.status().to_string();
    return out;
  }
  core::NodeOptions opts;
  opts.output_dir = dir.string();
  opts.file_prefix = "ckpt";
  core::DamarisNode node(std::move(cfg.value()), kCkptClients, opts);
  if (!node.start().is_ok()) {
    out.detail = "node start failed";
    return out;
  }

  std::vector<int> failures(kCkptClients, 0);
  std::vector<std::thread> threads;
  for (int c = 0; c < kCkptClients; ++c) {
    threads.emplace_back([&, c] {
      core::Client client = node.client(c);
      for (int step = 0; step < kCkptSteps; ++step) {
        if (step % kCkptEvery == 0) {
          // The burst: the variables in order, stopping at the first
          // failure, so a checkpoint either lands in order or fails fast.
          for (int v = 0; v < kCkptVars; ++v) {
            const auto data = ckpt_payload(c, step, v);
            if (!client.write(kCkptVarNames[v], step, data).is_ok()) {
              ++failures[c];
              break;
            }
          }
        }
        if (!client.end_iteration(step).is_ok()) ++failures[c];
      }
      if (!client.finalize().is_ok()) ++failures[c];
    });
  }
  for (auto& t : threads) t.join();
  const bool stopped = node.stop().is_ok();

  int failed = 0;
  for (int f : failures) failed += f;
  out.bursts = (kCkptSteps + kCkptEvery - 1) / kCkptEvery;
  out.blocks_written = kCkptClients * out.bursts * kCkptVars;
  out.ok = stopped && failed == 0;

  // Restart: read every checkpointed block back and verify.
  int verified = 0;
  bool clean = true;
  for (int step = 0; step < kCkptSteps; step += kCkptEvery) {
    const std::string path =
        dir.string() + "/ckpt_node0_it" + std::to_string(step) + ".dh5";
    auto reader = format::Dh5Reader::open(path);
    if (!reader.is_ok()) {
      out.detail = path + ": " + reader.status().to_string();
      clean = false;
      break;
    }
    for (int c = 0; c < kCkptClients && clean; ++c) {
      for (int v = 0; v < kCkptVars; ++v) {
        auto idx = reader.value().find(kCkptVarNames[v], step, c);
        if (!idx.has_value()) {
          out.detail = std::string("missing ") + kCkptVarNames[v];
          clean = false;
          break;
        }
        auto payload = reader.value().read(*idx);
        if (!payload.is_ok() ||
            payload.value() != ckpt_payload(c, step, v)) {
          out.detail = std::string("mismatch in ") + kCkptVarNames[v];
          clean = false;
          break;
        }
        ++verified;
      }
    }
    if (!clean) break;
  }
  out.blocks_verified = verified;
  out.round_trip = clean && verified == out.blocks_written;

  std::filesystem::remove_all(dir);
  return out;
}

// --------------------------------------------------------------- json

std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string sim_json(const SimOutcome& o) {
  std::string j = "{";
  j += "\"throughput_gib_s\": " +
       json_num(o.throughput / static_cast<double>(GiB));
  j += ", \"dedicated_mean_s\": " + json_num(o.dedicated_mean_s);
  j += ", \"dedicated_p95_s\": " + json_num(o.dedicated_p95_s);
  j += ", \"schedule_wait_s\": " + json_num(o.schedule_wait_s);
  j += ", \"retunes\": " + std::to_string(o.retunes);
  j += ", \"active_slots\": " + std::to_string(o.active_slots);
  j += "}";
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_sched.json";
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else {
      out_path = argv[i];
    }
  }
  bench::banner(
      "bench_sched: static vs adaptive slot scheduling + checkpoints",
      "paper SIV-D (slot scheduling) under AMR-style load imbalance",
      "adaptive matches static slots when balanced, beats them imbalanced");

  const SimOutcome stat_bal = run_sim(0.0, /*adaptive=*/false);
  const SimOutcome adap_bal = run_sim(0.0, /*adaptive=*/true);
  const SimOutcome stat_imb = run_sim(kImbalanceSigma, /*adaptive=*/false);
  const SimOutcome adap_imb = run_sim(kImbalanceSigma, /*adaptive=*/true);
  // Determinism probe: the adaptive imbalanced run, repeated.
  const SimOutcome adap_imb2 = run_sim(kImbalanceSigma, /*adaptive=*/true);

  const auto row = [](const char* name, const SimOutcome& o) {
    std::printf("%-18s %7.2f GiB/s  storage mean %6.2f s  p95 %6.2f s  "
                "slots=%d retunes=%d\n",
                name, o.throughput / static_cast<double>(GiB),
                o.dedicated_mean_s, o.dedicated_p95_s, o.active_slots,
                o.retunes);
  };
  row("static/balanced", stat_bal);
  row("adaptive/balanced", adap_bal);
  row("static/imbalanced", stat_imb);
  row("adaptive/imbalanced", adap_imb);

  const auto fingerprint = [](const SimOutcome& o) {
    return std::make_tuple(o.throughput, o.dedicated_mean_s,
                           o.dedicated_p95_s, o.schedule_wait_s, o.retunes,
                           o.active_slots);
  };
  const bool deterministic = fingerprint(adap_imb) == fingerprint(adap_imb2);
  const double imb_gain =
      stat_imb.throughput > 0 ? adap_imb.throughput / stat_imb.throughput
                              : 0.0;
  const double bal_ratio =
      stat_bal.throughput > 0 ? adap_bal.throughput / stat_bal.throughput
                              : 0.0;
  std::printf("imbalanced gain: %.2fx   balanced ratio: %.3f   "
              "deterministic: %s\n",
              imb_gain, bal_ratio, deterministic ? "yes" : "NO");

  const CkptOutcome ckpt = run_checkpoint_restart();
  std::printf("checkpoint/restart: %d bursts, %d blocks written, "
              "%d verified, round-trip %s%s%s\n",
              ckpt.bursts, ckpt.blocks_written, ckpt.blocks_verified,
              ckpt.round_trip ? "ok" : "FAILED",
              ckpt.detail.empty() ? "" : " — ", ckpt.detail.c_str());

  std::string json = "{\n  \"schema\": \"dmr-bench-sched-v1\",\n";
  json += "  \"static_balanced\": " + sim_json(stat_bal) + ",\n";
  json += "  \"adaptive_balanced\": " + sim_json(adap_bal) + ",\n";
  json += "  \"static_imbalanced\": " + sim_json(stat_imb) + ",\n";
  json += "  \"adaptive_imbalanced\": " + sim_json(adap_imb) + ",\n";
  json += "  \"imbalanced_gain\": " + json_num(imb_gain) + ",\n";
  json += "  \"balanced_ratio\": " + json_num(bal_ratio) + ",\n";
  json += std::string("  \"deterministic\": ") +
          (deterministic ? "true" : "false") + ",\n";
  json += "  \"checkpoint_restart\": {\"ok\": " +
          std::string(ckpt.ok ? "true" : "false") +
          ", \"round_trip\": " + (ckpt.round_trip ? "true" : "false") +
          ", \"blocks_written\": " + std::to_string(ckpt.blocks_written) +
          ", \"blocks_verified\": " + std::to_string(ckpt.blocks_verified) +
          "}\n}\n";

  if (!bench::write_file(out_path, json)) return 2;
  std::printf("\nwrote %s\n", out_path.c_str());

  if (check) {
    int rc = 0;
    const auto expect = [&rc](bool cond, const char* what) {
      if (!cond) {
        std::fprintf(stderr, "CHECK FAILED: %s\n", what);
        rc = 1;
      }
    };
    expect(imb_gain >= 1.02,
           "adaptive beats static slots on the imbalanced workload");
    expect(bal_ratio >= 0.95 && bal_ratio <= 1.05,
           "adaptive matches static slots on the balanced workload");
    expect(deterministic, "identical seed gives identical results");
    expect(adap_imb.retunes > 0, "the controller actually retuned");
    expect(ckpt.ok, "checkpoint bursts all published");
    expect(ckpt.round_trip, "restart read-back is byte-clean");
    std::printf("sched check: %s\n", rc == 0 ? "PASS" : "FAIL");
    return rc;
  }
  return 0;
}
