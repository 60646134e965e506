#include <gtest/gtest.h>

#include <tuple>
#include <utility>

#include "cm1/workload.hpp"
#include "experiments/experiments.hpp"
#include "strategies/strategy.hpp"

namespace dmr::strategies {
namespace {

/// Small, fast Kraken slice (48 cores = 4 nodes) used by most tests.
RunConfig small(StrategyKind kind, int iterations = 3,
                int write_interval = 1) {
  return experiments::kraken_config(kind, 48, iterations, write_interval,
                                    /*iteration_seconds=*/4.1, /*seed=*/7);
}

TEST(Strategies, Names) {
  EXPECT_STREQ(strategy_name(StrategyKind::kFilePerProcess),
               "file-per-process");
  EXPECT_STREQ(strategy_name(StrategyKind::kCollectiveIo), "collective-io");
  EXPECT_STREQ(strategy_name(StrategyKind::kDamaris), "damaris");
  EXPECT_STREQ(strategy_name(StrategyKind::kNoIo), "no-io");
}

TEST(Strategies, NoIoRuntimeIsComputeOnly) {
  auto res = run_strategy(small(StrategyKind::kNoIo, 5));
  EXPECT_EQ(res.phases, 5);  // phases counted but no I/O performed
  EXPECT_EQ(res.rank_write_seconds.count(), 0u);
  EXPECT_NEAR(res.total_runtime, 5 * 4.1, 5 * 4.1 * 0.05);
  EXPECT_EQ(res.fs_stats.bytes_written, 0u);
}

TEST(Strategies, RankAndCoreAccounting) {
  auto fpp = run_strategy(small(StrategyKind::kFilePerProcess));
  EXPECT_EQ(fpp.total_cores, 48);
  EXPECT_EQ(fpp.compute_ranks, 48);
  EXPECT_EQ(fpp.nodes, 4);
  auto dam = run_strategy(small(StrategyKind::kDamaris));
  EXPECT_EQ(dam.total_cores, 48);
  EXPECT_EQ(dam.compute_ranks, 44);  // 11 per node computing
}

TEST(Strategies, BytesPerPhaseMatchesWorkload) {
  auto res = run_strategy(small(StrategyKind::kFilePerProcess));
  EXPECT_EQ(res.bytes_per_phase,
            res.compute_ranks *
                experiments::kraken_config(StrategyKind::kFilePerProcess, 48,
                                           3, 1)
                    .workload.output_bytes_per_rank());
  // All phases actually reached the file system.
  EXPECT_EQ(res.fs_stats.bytes_written, res.bytes_per_phase * 3);
}

TEST(Strategies, DamarisTotalProblemEquivalent) {
  // 44 Damaris ranks with bigger subdomains emit the same bytes as 48
  // standard ranks (paper: "making the total problem size equivalent").
  auto fpp = run_strategy(small(StrategyKind::kFilePerProcess));
  auto dam = run_strategy(small(StrategyKind::kDamaris));
  EXPECT_EQ(fpp.bytes_per_phase, dam.bytes_per_phase);
}

TEST(Strategies, FppCreatesOneFilePerRankPerPhase) {
  auto res = run_strategy(small(StrategyKind::kFilePerProcess, 2));
  EXPECT_EQ(res.fs_stats.creates, 48u * 2);
}

TEST(Strategies, CollectiveCreatesOneSharedFilePerPhase) {
  auto res = run_strategy(small(StrategyKind::kCollectiveIo, 2));
  EXPECT_EQ(res.fs_stats.creates, 2u);
  EXPECT_GT(res.fs_stats.lock_revocations, 0u);
}

TEST(Strategies, DamarisCreatesOneFilePerNodePerPhase) {
  auto res = run_strategy(small(StrategyKind::kDamaris, 2));
  EXPECT_EQ(res.fs_stats.creates, 4u * 2);
  EXPECT_EQ(res.fs_stats.lock_revocations, 0u);
}

TEST(Strategies, DamarisHidesJitter) {
  auto fpp = run_strategy(small(StrategyKind::kFilePerProcess));
  auto dam = run_strategy(small(StrategyKind::kDamaris));
  // The visible write is a memcpy: well below the synchronous approach
  // even at this small scale (the gap widens with the process count —
  // the benches demonstrate the 100x+ factors at Kraken scale).
  EXPECT_LT(dam.rank_write_seconds.mean(),
            fpp.rank_write_seconds.mean() / 2.0);
  EXPECT_LT(dam.rank_write_seconds.max(), 1.0);
  // ... and the application run time does not absorb the I/O.
  EXPECT_LT(dam.total_runtime, fpp.total_runtime);
}

TEST(Strategies, DamarisSpareFractionSane) {
  auto cfg = small(StrategyKind::kDamaris, 3);
  cfg.workload.seconds_per_iteration = 60.0;  // roomy iterations
  auto res = run_strategy(cfg);
  EXPECT_GT(res.dedicated_spare_fraction, 0.5);
  EXPECT_LE(res.dedicated_spare_fraction, 1.0);
  EXPECT_EQ(res.dedicated_write_seconds.count(),
            static_cast<std::size_t>(res.nodes * res.phases));
}

TEST(Strategies, CompressionShrinksStoredBytes) {
  auto cfg = small(StrategyKind::kDamaris);
  cfg.damaris.compression = iopath::CompressionModel::lossless();
  auto res = run_strategy(cfg);
  EXPECT_NEAR(static_cast<double>(res.bytes_per_phase) /
                  static_cast<double>(res.stored_bytes_per_phase),
              iopath::kGzipRatio, 0.05);
  // The FS saw the compressed volume, not the raw one.
  EXPECT_LT(res.fs_stats.bytes_written, res.bytes_per_phase * 3);
}

TEST(Strategies, Precision16ShrinksMore) {
  auto cfg = small(StrategyKind::kDamaris);
  cfg.damaris.compression = iopath::CompressionModel::visualization();
  auto res = run_strategy(cfg);
  EXPECT_NEAR(static_cast<double>(res.bytes_per_phase) /
                  static_cast<double>(res.stored_bytes_per_phase),
              iopath::kPrecision16Ratio, 0.1);
}

TEST(Strategies, SchedulingSpreadsWrites) {
  // With slots, dedicated-core writes contend less and get faster on
  // average (the §IV-D effect). Needs real contention to show: 2304
  // cores with the paper's ~230 s cadence, like Figure 7.
  auto base = experiments::kraken_config(StrategyKind::kDamaris, 2304, 3, 1,
                                         /*iteration_seconds=*/230.0);
  auto plain = run_strategy(base);
  auto scheduled = base;
  scheduled.damaris.scheduling = iopath::Scheduling::kSlots;
  auto sched = run_strategy(scheduled);
  EXPECT_LT(sched.dedicated_write_seconds.mean(),
            plain.dedicated_write_seconds.mean());
}

TEST(Strategies, EveryCompositionKeepsThePipelineInvariants) {
  // WritePipeline::process fails a request whose stages run out of
  // order or resize the payload outside a shrinking Transform, so a
  // broken composition shows up as failed writes in a fault-free run.
  RunConfig fpp_lossless = small(StrategyKind::kFilePerProcess);
  fpp_lossless.fpp_compression = iopath::CompressionModel::lossless();
  const auto damaris = [](auto set) {
    RunConfig cfg = small(StrategyKind::kDamaris);
    set(cfg.damaris);
    return cfg;
  };
  const std::pair<const char*, RunConfig> runs[] = {
      {"file-per-process", small(StrategyKind::kFilePerProcess)},
      {"file-per-process lossless", fpp_lossless},
      {"collective-io", small(StrategyKind::kCollectiveIo)},
      {"damaris shm", damaris([](DamarisOptions&) {})},
      {"damaris fuse",
       damaris([](DamarisOptions& d) { d.transport = Transport::kFuse; })},
      {"damaris dedicated nodes", damaris([](DamarisOptions& d) {
         d.transport = Transport::kDedicatedNodes;
       })},
      {"damaris slots", damaris([](DamarisOptions& d) {
         d.scheduling = iopath::Scheduling::kSlots;
       })},
      {"damaris adaptive", damaris([](DamarisOptions& d) {
         d.scheduling = iopath::Scheduling::kAdaptive;
       })},
      {"damaris tokens", damaris([](DamarisOptions& d) {
         d.scheduling = iopath::Scheduling::kTokens;
       })},
      {"damaris visualization", damaris([](DamarisOptions& d) {
         d.compression = iopath::CompressionModel::visualization();
       })},
  };
  for (const auto& [name, cfg] : runs) {
    SCOPED_TRACE(name);
    const RunResult res = run_strategy(cfg);
    EXPECT_GT(res.stage_stats.of(iopath::StageKind::kStorage).ops, 0u);
    EXPECT_EQ(res.failed_writes, 0u);
    EXPECT_TRUE(res.first_error.is_ok()) << res.first_error.to_string();
  }
}

TEST(Strategies, DeterministicPerSeed) {
  auto a = run_strategy(small(StrategyKind::kFilePerProcess));
  auto b = run_strategy(small(StrategyKind::kFilePerProcess));
  EXPECT_EQ(a.total_runtime, b.total_runtime);
  EXPECT_EQ(a.phase_seconds.values(), b.phase_seconds.values());
}

TEST(Strategies, DifferentSeedsDiffer) {
  auto cfg_a = small(StrategyKind::kFilePerProcess);
  auto cfg_b = cfg_a;
  cfg_b.seed = 12345;
  auto a = run_strategy(cfg_a);
  auto b = run_strategy(cfg_b);
  EXPECT_NE(a.total_runtime, b.total_runtime);
}

TEST(Strategies, WriteIntervalControlsPhaseCount) {
  auto res = run_strategy(small(StrategyKind::kFilePerProcess, 10, 5));
  EXPECT_EQ(res.phases, 2);
  EXPECT_EQ(res.phase_seconds.count(), 2u);
}

TEST(Strategies, ScalabilityFactorMath) {
  EXPECT_DOUBLE_EQ(scalability_factor(576, 100.0, 100.0), 576.0);
  EXPECT_DOUBLE_EQ(scalability_factor(1152, 200.0, 100.0), 576.0);
  EXPECT_DOUBLE_EQ(scalability_factor(1152, 0.0, 100.0), 0.0);
}

TEST(Strategies, CollectiveSlowerThanFppAtScale) {
  // The paper's central ordering: collective > fpp >> damaris for the
  // visible phase duration, already at 4 nodes on the Lustre-like model.
  auto fpp = run_strategy(small(StrategyKind::kFilePerProcess));
  auto coll = run_strategy(small(StrategyKind::kCollectiveIo));
  auto dam = run_strategy(small(StrategyKind::kDamaris));
  EXPECT_GT(coll.phase_seconds.mean(), fpp.phase_seconds.mean());
  EXPECT_LT(dam.phase_seconds.mean(), fpp.phase_seconds.mean());
}

TEST(Strategies, ThroughputOrdering) {
  // At 576 cores (the smallest scale of the paper's evaluation) Damaris
  // already out-throughputs both standard approaches.
  auto mk = [](StrategyKind kind) {
    return run_strategy(
        experiments::kraken_config(kind, 576, 3, 1, 4.1, /*seed=*/7));
  };
  auto fpp = mk(StrategyKind::kFilePerProcess);
  auto coll = mk(StrategyKind::kCollectiveIo);
  auto dam = mk(StrategyKind::kDamaris);
  EXPECT_GT(dam.aggregate_throughput, fpp.aggregate_throughput);
  EXPECT_GT(fpp.aggregate_throughput, coll.aggregate_throughput);
}

TEST(Strategies, AdaptiveSchedulingRetunesAndStaysDeterministic) {
  // Opt-in adaptive scheduling on an imbalanced workload: the
  // controller must complete retunes, keep every slot active (all
  // writers write every phase), and two identical-seed runs must agree
  // bit-for-bit on throughput and runtime.
  auto mk = [] {
    RunConfig cfg = small(StrategyKind::kDamaris, 4);
    cfg.workload.imbalance = 1.0;
    cfg.damaris.scheduling = iopath::Scheduling::kAdaptive;
    return cfg;
  };
  auto a = run_strategy(mk());
  auto b = run_strategy(mk());
  EXPECT_GT(a.schedule_retunes, 0);
  EXPECT_GT(a.active_slots, 0);
  EXPECT_EQ(a.schedule_retunes, b.schedule_retunes);
  EXPECT_DOUBLE_EQ(a.aggregate_throughput, b.aggregate_throughput);
  EXPECT_DOUBLE_EQ(a.total_runtime, b.total_runtime);
}

TEST(Strategies, StaticRunReportsNoRetunes) {
  auto res = run_strategy(small(StrategyKind::kDamaris));
  EXPECT_EQ(res.schedule_retunes, 0);
  EXPECT_EQ(res.active_slots, 0);
}

/// The §IV-D regime: 2304 Kraken cores (192 nodes) at the paper's ~230 s
/// cadence, writing every 4th of 24 iterations, seed 2012. The schedule
/// horizon holds the cohort's serialized writes, which is the premise of
/// slot scheduling, and six write phases give the adaptive controller's
/// EMA time to lock onto a persistent imbalance. `sigma` > 0 swaps in
/// the AMR workload with that lognormal sigma: a few refined subdomains
/// dominate every phase, so uniform static slots overflow under them.
RunResult run_slots(double sigma, bool adaptive) {
  constexpr int kWriteInterval = 4;
  constexpr double kIterationSeconds = 230.0;
  RunConfig cfg = experiments::kraken_config(
      StrategyKind::kDamaris, 2304, 6 * kWriteInterval, kWriteInterval,
      kIterationSeconds, /*seed=*/2012);
  if (sigma > 0.0) {
    cfg.workload = cm1::amr_workload(true, sigma, kIterationSeconds);
    cfg.workload.write_interval = kWriteInterval;
  }
  cfg.damaris.scheduling =
      adaptive ? iopath::Scheduling::kAdaptive : iopath::Scheduling::kSlots;
  return run_strategy(cfg);
}

TEST(Strategies, AdaptiveSlotsBeatStaticOnImbalancedAmr) {
  const RunResult fixed = run_slots(2.0, /*adaptive=*/false);
  const RunResult adaptive = run_slots(2.0, /*adaptive=*/true);
  EXPECT_GE(adaptive.aggregate_throughput / fixed.aggregate_throughput, 1.02);
  EXPECT_GT(adaptive.schedule_retunes, 0);

  const auto fingerprint = [](const RunResult& r) {
    return std::make_tuple(
        r.aggregate_throughput, r.dedicated_write_seconds.mean(),
        r.dedicated_write_seconds.percentile(95.0),
        r.stage_stats.of(iopath::StageKind::kSchedule).seconds,
        r.schedule_retunes, r.active_slots);
  };
  EXPECT_EQ(fingerprint(adaptive), fingerprint(run_slots(2.0, true)));
}

TEST(Strategies, AdaptiveSlotsMatchStaticWhenBalanced) {
  const double ratio = run_slots(0.0, /*adaptive=*/true).aggregate_throughput /
                       run_slots(0.0, /*adaptive=*/false).aggregate_throughput;
  EXPECT_GE(ratio, 0.95);
  EXPECT_LE(ratio, 1.05);
}

}  // namespace
}  // namespace dmr::strategies
