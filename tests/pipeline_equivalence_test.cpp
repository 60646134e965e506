// Pipeline-refactor equivalence suite.
//
// The staged write pipeline (src/iopath/) replaced the inline write
// paths of src/strategies/strategy.cpp. These goldens were captured
// from the pre-refactor monolith at full double precision, *including*
// the determinism timeline digests of src/check — so the suite pins
// both the figures' numbers (fig2/fig4/fig6 scenarios) and the exact
// DES event timeline: a stage composition that schedules even one extra
// event, or reorders two, fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>

#include "check/determinism.hpp"
#include "experiments/experiments.hpp"
#include "iopath/stage.hpp"
#include "strategies/strategy.hpp"

namespace dmr::strategies {
namespace {

using experiments::kraken_config;
using iopath::StageKind;

struct Golden {
  const char* tag;
  StrategyKind kind;
  int cores;
  int iterations;
  int write_interval;
  std::uint64_t digest;       // timeline digest
  std::uint64_t events;       // dispatched DES events
  double total_runtime;
  double phase_mean;          // 0 when the strategy records no phases
  double phase_max;
  double rank_mean;
  double throughput;
  std::uint64_t bytes_per_phase;
  std::uint64_t stored_bytes_per_phase;
};

// gtest shows the parameter in each listed test name; printing the tag
// keeps those names stable (the default dump carries the tag's address).
void PrintTo(const Golden& g, std::ostream* os) { *os << g.tag; }

// Captured from the pre-refactor strategy.cpp (commit 1ad1034) with the
// default Kraken scenario (iteration_seconds=4.1, seed=2012).
// fig2/fig6 share one scenario: 5 iterations, write every iteration;
// fig4 is 50 iterations with a single write phase.
constexpr Golden kGoldens[] = {
    {"fig26_fpp_576", StrategyKind::kFilePerProcess, 576, 5, 1,
     0x02b2cd46ad8548edULL, 413380, 90.513327093667613, 13.94933007075802,
     16.019536036926183, 5.4485362680688345, 1023256366.2624948, 14273740800u,
     14273740800u},
    {"fig26_fpp_1152", StrategyKind::kFilePerProcess, 1152, 5, 1,
     0x190f8121f9b75a86ULL, 782591, 127.23078557475358, 21.289568888533974,
     23.039982230420947, 9.5238490864112251, 1340914029.2819624, 28547481600u,
     28547481600u},
    {"fig4_fpp_576", StrategyKind::kFilePerProcess, 576, 50, 50,
     0xecbdc9c5300c597bULL, 209812, 218.43595450977494, 10.8861825131697,
     10.8861825131697, 5.1891562971670711, 1311179633.6991556, 14273740800u,
     14273740800u},
    {"fig26_coll_576", StrategyKind::kCollectiveIo, 576, 5, 1,
     0xb93b9c2679c8af05ULL, 485746, 220.54756650582178, 39.956177953188856,
     43.890935734067988, 39.956177953187542, 357234889.10081875, 14273740800u,
     14273740800u},
    {"fig26_coll_1152", StrategyKind::kCollectiveIo, 1152, 5, 1,
     0x8f37c4277d50c866ULL, 912074, 383.43222819049231, 72.529857411681718,
     76.129689028591088, 72.529857411679913, 393596273.57273859, 28547481600u,
     28547481600u},
    {"fig4_coll_576", StrategyKind::kCollectiveIo, 576, 50, 50,
     0x97ea6a83bb5d7a84ULL, 224106, 243.02732051910573, 35.477548522500484,
     35.477548522500484, 35.477548522500278, 402331654.65047121, 14273740800u,
     14273740800u},
    {"fig26_dam_576", StrategyKind::kDamaris, 576, 5, 1,
     0x879e27b9253e752dULL, 400727, 24.255470392746258, 0.2314329567541856,
     0.27720063804953998, 0.21381596243045631, 2368626044.827497, 14273740800u,
     14273740800u},
    {"fig26_dam_1152", StrategyKind::kDamaris, 1152, 5, 1,
     0xda9bdcd28ead498fULL, 756795, 24.405367059003531, 0.2314329567541856,
     0.27720063804953998, 0.21422166734054165, 4504724274.0756035, 28547481600u,
     28547481600u},
    {"fig4_dam_576", StrategyKind::kDamaris, 576, 50, 50,
     0xe0e76864b267d71cULL, 201223, 226.7530641096356, 0.19869332003059981,
     0.19869332003059981, 0.21463595938705798, 2745918123.1319189, 14273740800u,
     14273740800u},
    {"fig4_noio_576", StrategyKind::kNoIo, 576, 50, 50,
     0x138feb8fe81c9298ULL, 137813, 207.54977199660524, 0.0, 0.0, 0.0, 0.0,
     14273740800u, 14273740800u},
};

class PipelineEquivalence : public ::testing::TestWithParam<Golden> {};

TEST_P(PipelineEquivalence, ReproducesPreRefactorRun) {
  const Golden& g = GetParam();

  check::TimelineHasher hasher;
  const RunResult res = run_strategy(
      kraken_config(g.kind, g.cores, g.iterations, g.write_interval));
  // The strongest claim first: the staged pipeline replays the exact
  // pre-refactor event timeline, event for event.
  EXPECT_EQ(hasher.digest(), g.digest) << g.tag;
  EXPECT_EQ(hasher.events(), g.events) << g.tag;

  EXPECT_EQ(res.kind, g.kind);
  EXPECT_EQ(res.events_processed, g.events) << g.tag;
  EXPECT_DOUBLE_EQ(res.total_runtime, g.total_runtime) << g.tag;
  EXPECT_DOUBLE_EQ(res.aggregate_throughput, g.throughput) << g.tag;
  EXPECT_EQ(res.bytes_per_phase, Bytes(g.bytes_per_phase)) << g.tag;
  EXPECT_EQ(res.stored_bytes_per_phase, Bytes(g.stored_bytes_per_phase))
      << g.tag;
  if (g.kind != StrategyKind::kNoIo) {
    ASSERT_FALSE(res.phase_seconds.empty()) << g.tag;
    EXPECT_DOUBLE_EQ(res.phase_seconds.mean(), g.phase_mean) << g.tag;
    EXPECT_DOUBLE_EQ(res.phase_seconds.max(), g.phase_max) << g.tag;
    EXPECT_DOUBLE_EQ(res.rank_write_seconds.mean(), g.rank_mean) << g.tag;
  }
}

INSTANTIATE_TEST_SUITE_P(Scenarios, PipelineEquivalence,
                         ::testing::ValuesIn(kGoldens),
                         [](const auto& param_info) {
                           return std::string(param_info.param.tag);
                         });

// ------------------------------------------------- stage instrumentation
//
// The refactor's observable addition: RunResult carries per-stage
// counters. Pin their structure against the known scenario shapes.

TEST(PipelineStageStats, DamarisSplitsIngestAndStorage) {
  const RunConfig cfg =
      kraken_config(StrategyKind::kDamaris, /*cores=*/576, /*iterations=*/5,
                    /*write_interval=*/1);
  const RunResult res = run_strategy(cfg);
  const auto& st = res.stage_stats;

  // Every compute rank ingests once per phase; every node's dedicated
  // core stores once per phase.
  const std::uint64_t ingests =
      static_cast<std::uint64_t>(res.compute_ranks) * res.phases;
  const std::uint64_t stores =
      static_cast<std::uint64_t>(res.nodes) * res.phases;
  EXPECT_EQ(st.of(StageKind::kIngest).ops, ingests);
  EXPECT_EQ(st.of(StageKind::kStorage).ops, stores);
  EXPECT_GT(st.of(StageKind::kIngest).seconds, 0.0);
  EXPECT_GT(st.of(StageKind::kStorage).seconds, 0.0);

  // No compression or scheduling configured: the Transform and Schedule
  // stages run on every writer request but cost nothing, and a shm-mode
  // run has no Transport stage at all.
  EXPECT_EQ(st.of(StageKind::kTransform).ops, stores);
  EXPECT_DOUBLE_EQ(st.of(StageKind::kTransform).seconds, 0.0);
  EXPECT_EQ(st.of(StageKind::kSchedule).ops, stores);
  EXPECT_DOUBLE_EQ(st.of(StageKind::kSchedule).seconds, 0.0);
  EXPECT_EQ(st.of(StageKind::kTransport).ops, 0u);

  // Byte conservation: everything ingested reaches storage un-shrunk.
  const Bytes total = res.bytes_per_phase * res.phases;
  EXPECT_EQ(st.of(StageKind::kIngest).bytes_in, total);
  EXPECT_EQ(st.of(StageKind::kStorage).bytes_in, total);
  EXPECT_EQ(st.of(StageKind::kStorage).bytes_out, total);
}

TEST(PipelineStageStats, CompressionShrinksBytesBetweenStages) {
  RunConfig cfg =
      kraken_config(StrategyKind::kDamaris, /*cores=*/576, /*iterations=*/3,
                    /*write_interval=*/1);
  cfg.damaris.compression = iopath::CompressionModel::lossless();
  const RunResult res = run_strategy(cfg);
  const auto& st = res.stage_stats;

  const Bytes raw = res.bytes_per_phase * res.phases;
  EXPECT_EQ(st.of(StageKind::kTransform).bytes_in, raw);
  EXPECT_LT(st.of(StageKind::kTransform).bytes_out, raw);
  EXPECT_GT(st.of(StageKind::kTransform).seconds, 0.0);
  // Storage sees exactly what Transform emitted.
  EXPECT_EQ(st.of(StageKind::kStorage).bytes_in,
            st.of(StageKind::kTransform).bytes_out);
  EXPECT_EQ(res.stored_bytes_per_phase * res.phases,
            st.of(StageKind::kStorage).bytes_out);
}

TEST(PipelineStageStats, FilePerProcessHasNoIngest) {
  const RunResult res = run_strategy(
      kraken_config(StrategyKind::kFilePerProcess, /*cores=*/576,
                    /*iterations=*/3, /*write_interval=*/1));
  const auto& st = res.stage_stats;
  const std::uint64_t writes =
      static_cast<std::uint64_t>(res.compute_ranks) * res.phases;
  EXPECT_EQ(st.of(StageKind::kIngest).ops, 0u);
  EXPECT_EQ(st.of(StageKind::kStorage).ops, writes);
  EXPECT_GT(st.of(StageKind::kStorage).seconds, 0.0);
}

TEST(PipelineStageStats, SlotSchedulingBooksScheduleTime) {
  RunConfig cfg =
      kraken_config(StrategyKind::kDamaris, /*cores=*/576, /*iterations=*/3,
                    /*write_interval=*/1);
  cfg.damaris.scheduling = iopath::Scheduling::kSlots;
  const RunResult res = run_strategy(cfg);
  const auto& st = res.stage_stats;
  EXPECT_EQ(st.of(StageKind::kSchedule).ops,
            static_cast<std::uint64_t>(res.nodes) * res.phases);
  // Slot offsets spread the writers out, so somebody waited.
  EXPECT_GT(st.of(StageKind::kSchedule).seconds, 0.0);
}

}  // namespace
}  // namespace dmr::strategies
