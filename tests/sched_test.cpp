#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sched/adaptive.hpp"
#include "sched/slot_scheduler.hpp"

namespace dmr::sched {
namespace {

TEST(SlotScheduler, SlotsPartitionTheIteration) {
  const double T = 230.0;  // the paper's measured Kraken iteration
  const int nodes = 192;   // 2304 cores / 12
  for (int id = 0; id < nodes; ++id) {
    SlotScheduler s(T, nodes, id);
    EXPECT_DOUBLE_EQ(s.slot_width(), T / nodes);
    EXPECT_DOUBLE_EQ(s.slot_start(), id * T / nodes);
    EXPECT_LT(s.slot_start(), T);
  }
}

TEST(SlotScheduler, SlotsDoNotOverlap) {
  const double T = 100.0;
  const int nodes = 7;
  double prev_end = 0.0;
  for (int id = 0; id < nodes; ++id) {
    SlotScheduler s(T, nodes, id);
    EXPECT_NEAR(s.slot_start(), prev_end, 1e-12);
    prev_end = s.slot_start() + s.slot_width();
  }
  EXPECT_NEAR(prev_end, T, 1e-12);
}

TEST(SlotScheduler, WaitTimeBeforeAndAfterSlot) {
  SlotScheduler s(100.0, 10, 3);  // slot [30, 40)
  EXPECT_DOUBLE_EQ(s.wait_time(0.0), 30.0);
  EXPECT_DOUBLE_EQ(s.wait_time(29.0), 1.0);
  EXPECT_DOUBLE_EQ(s.wait_time(30.0), 0.0);
  EXPECT_DOUBLE_EQ(s.wait_time(55.0), 0.0);
}

TEST(SlotScheduler, NodeZeroNeverWaits) {
  SlotScheduler s(50.0, 8, 0);
  EXPECT_DOUBLE_EQ(s.wait_time(0.0), 0.0);
}

TEST(SlotScheduler, SingleNodeOwnsWholeIteration) {
  SlotScheduler s(42.0, 1, 0);
  EXPECT_DOUBLE_EQ(s.slot_width(), 42.0);
  EXPECT_DOUBLE_EQ(s.wait_time(0.0), 0.0);
}

TEST(SlotScheduler, EstimateUpdateEwma) {
  SlotScheduler s(100.0, 4, 1);
  s.update_estimate(200.0);
  EXPECT_NEAR(s.estimated_iteration(), 0.7 * 100 + 0.3 * 200, 1e-12);
  s.update_estimate(0.0);  // bogus measurements are ignored
  EXPECT_NEAR(s.estimated_iteration(), 130.0, 1e-12);
  // Slots follow the refined estimate.
  EXPECT_NEAR(s.slot_start(), 130.0 / 4, 1e-12);
}

TEST(SlotScheduler, ConvergesToStableMeasurement) {
  SlotScheduler s(10.0, 2, 0);
  for (int i = 0; i < 60; ++i) s.update_estimate(230.0);
  EXPECT_NEAR(s.estimated_iteration(), 230.0, 0.01);
}

// ------------------------------------------------------------ edge cases

TEST(SlotScheduler, ZeroEstimateCollapsesSlots) {
  // Before the first measured iteration the estimate can be 0: every
  // slot collapses to width 0 at offset 0 and nobody waits.
  SlotScheduler s(0.0, 8, 5);
  EXPECT_DOUBLE_EQ(s.slot_width(), 0.0);
  EXPECT_DOUBLE_EQ(s.slot_start(), 0.0);
  EXPECT_DOUBLE_EQ(s.wait_time(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.wait_time(17.0), 0.0);
}

TEST(SlotScheduler, NegativeEstimateClampsToZero) {
  SlotScheduler s(-42.0, 4, 2);
  EXPECT_DOUBLE_EQ(s.estimated_iteration(), 0.0);
  EXPECT_DOUBLE_EQ(s.slot_width(), 0.0);
  EXPECT_DOUBLE_EQ(s.wait_time(0.0), 0.0);
}

TEST(SlotScheduler, FirstPositiveMeasurementReplacesEmptyEstimate) {
  // A 0 initial estimate is "unknown", not a datapoint: the first real
  // measurement replaces it outright instead of being EWMA-diluted.
  SlotScheduler s(0.0, 4, 1);
  s.update_estimate(120.0);
  EXPECT_DOUBLE_EQ(s.estimated_iteration(), 120.0);
  EXPECT_DOUBLE_EQ(s.slot_start(), 120.0 / 4);
  s.update_estimate(-3.0);  // still ignored
  EXPECT_DOUBLE_EQ(s.estimated_iteration(), 120.0);
}

TEST(SlotScheduler, MoreWritersThanSlotsShareRoundRobin) {
  // 6 writers over 4 slots: writers 4 and 5 wrap onto slots 0 and 1.
  const double T = 100.0;
  for (int writer = 0; writer < 6; ++writer) {
    SlotScheduler s(T, 4, writer);
    EXPECT_EQ(s.slot_id(), writer % 4) << "writer " << writer;
    EXPECT_DOUBLE_EQ(s.slot_start(), (writer % 4) * T / 4);
  }
}

TEST(SlotScheduler, NegativeWriterIdWrapsIntoRange) {
  SlotScheduler s(100.0, 4, -1);
  EXPECT_EQ(s.slot_id(), 3);
  EXPECT_DOUBLE_EQ(s.slot_start(), 75.0);
}

TEST(SlotScheduler, NonPositiveSlotCountBecomesSingleSlot) {
  SlotScheduler zero(100.0, 0, 7);
  EXPECT_EQ(zero.num_slots(), 1);
  EXPECT_DOUBLE_EQ(zero.slot_width(), 100.0);
  EXPECT_DOUBLE_EQ(zero.slot_start(), 0.0);
  SlotScheduler negative(100.0, -3, 2);
  EXPECT_EQ(negative.num_slots(), 1);
  EXPECT_DOUBLE_EQ(negative.wait_time(0.0), 0.0);
}

// ---------------------------------------------- configurable EMA alpha

TEST(SlotScheduler, AlphaIsConfigurable) {
  SlotScheduler s(100.0, 4, 1, 0.5);
  EXPECT_DOUBLE_EQ(s.alpha(), 0.5);
  s.update_estimate(200.0);
  EXPECT_NEAR(s.estimated_iteration(), 0.5 * 100 + 0.5 * 200, 1e-12);
}

TEST(SlotScheduler, ClampAlphaRejectsInvalidValues) {
  EXPECT_DOUBLE_EQ(clamp_alpha(0.3), 0.3);
  EXPECT_DOUBLE_EQ(clamp_alpha(1.0), 1.0);
  EXPECT_DOUBLE_EQ(clamp_alpha(2.5), 1.0);       // above range: capped
  EXPECT_DOUBLE_EQ(clamp_alpha(0.0), kDefaultAlpha);
  EXPECT_DOUBLE_EQ(clamp_alpha(-1.0), kDefaultAlpha);
  EXPECT_DOUBLE_EQ(clamp_alpha(std::nan("")), kDefaultAlpha);
}

// ------------------------------------------- AdaptiveSlotController

SlotObservation obs(int writer, int phase, double write_s,
                    std::uint64_t bytes) {
  SlotObservation o;
  o.writer = writer;
  o.phase = phase;
  o.write_seconds = write_s;
  o.bytes = bytes;
  return o;
}

TEST(AdaptiveSlotController, StartsWithTheStaticUniformPlan) {
  const double T = 100.0;
  const int n = 4;
  AdaptiveSlotController c(T, n);
  const SlotScheduler uniform(T, n, 0);
  for (int w = 0; w < n; ++w) {
    EXPECT_DOUBLE_EQ(c.width(w), uniform.slot_width());
    EXPECT_DOUBLE_EQ(c.offset(w), uniform.slot_width() * w);
  }
  EXPECT_EQ(c.phases_completed(), 0);
  EXPECT_EQ(c.active_slots(), n);
}

TEST(AdaptiveSlotController, RetunesOnceTheWholeCohortReports) {
  AdaptiveSlotController c(100.0, 3);
  c.observe(obs(0, 0, 1.0, 1000), 10.0);
  c.observe(obs(1, 0, 1.0, 1000), 11.0);
  EXPECT_EQ(c.phases_completed(), 0);  // cohort incomplete
  c.observe(obs(2, 0, 1.0, 1000), 12.0);
  EXPECT_EQ(c.phases_completed(), 1);
}

TEST(AdaptiveSlotController, WidthsFollowObservedLoad) {
  // Writer 1 carries 8x the storage time of the others: after one
  // cohort its slot must be the widest, and offsets must stay a
  // non-overlapping prefix sum within the horizon.
  const double T = 100.0;
  const int n = 4;
  AdaptiveSlotController c(T, n);
  for (int w = 0; w < n; ++w) {
    c.observe(obs(w, 0, w == 1 ? 8.0 : 1.0, 1 * MiB), 50.0);
  }
  ASSERT_EQ(c.phases_completed(), 1);
  for (int w = 0; w < n; ++w) {
    if (w == 1) continue;
    EXPECT_GT(c.width(1), c.width(w));
  }
  double cursor = 0.0;
  for (int w = 0; w < n; ++w) {
    EXPECT_DOUBLE_EQ(c.offset(w), cursor);
    cursor += c.width(w);
  }
  EXPECT_LE(cursor, c.estimated_interval() + 1e-9);
}

TEST(AdaptiveSlotController, DriftedWritersRetunePerPhaseCohort) {
  // A light writer finishes phases 0..2 before the heavy one reports
  // phase 0 — the per-phase buckets must still complete every cohort.
  AdaptiveSlotController c(10.0, 2);
  c.observe(obs(0, 0, 0.1, 100), 1.0);
  c.observe(obs(0, 1, 0.1, 100), 2.0);
  c.observe(obs(0, 2, 0.1, 100), 3.0);
  EXPECT_EQ(c.phases_completed(), 0);
  c.observe(obs(1, 0, 5.0, 100), 4.0);
  EXPECT_EQ(c.phases_completed(), 1);
  c.observe(obs(1, 1, 5.0, 100), 5.0);
  c.observe(obs(1, 2, 5.0, 100), 6.0);
  EXPECT_EQ(c.phases_completed(), 3);
}

TEST(AdaptiveSlotController, PlanIsCappedAtTheHorizon) {
  // Total observed load (40 s + jitter margin) dwarfs the 10 s
  // interval: the plan compresses to proportional sharing, never
  // offsets beyond the horizon.
  const double T = 10.0;
  const int n = 4;
  AdaptiveSlotController c(T, n);
  for (int w = 0; w < n; ++w) c.observe(obs(w, 0, 10.0, 1 * MiB), 5.0);
  ASSERT_EQ(c.phases_completed(), 1);
  double total = 0.0;
  for (int w = 0; w < n; ++w) {
    EXPECT_LT(c.offset(w), c.estimated_interval());
    total += c.width(w);
  }
  EXPECT_NEAR(total, c.estimated_interval(), 1e-9);
}

TEST(AdaptiveSlotController, IdleWritersReleaseTheirSlots) {
  // Writers 2 and 3 wrote nothing this phase (bursty checkpoint): they
  // collapse to zero-width slots and the busy writers share the plan.
  AdaptiveSlotController c(100.0, 4);
  c.observe(obs(0, 0, 2.0, 1 * MiB), 10.0);
  c.observe(obs(1, 0, 2.0, 1 * MiB), 10.0);
  c.observe(obs(2, 0, 0.0, 0), 10.0);
  c.observe(obs(3, 0, 0.0, 0), 10.0);
  ASSERT_EQ(c.phases_completed(), 1);
  EXPECT_EQ(c.active_slots(), 2);
  EXPECT_GT(c.width(0), 0.0);
  EXPECT_GT(c.width(1), 0.0);
  EXPECT_DOUBLE_EQ(c.width(2), 0.0);
  EXPECT_DOUBLE_EQ(c.width(3), 0.0);
}

TEST(AdaptiveSlotController, AllIdlePhaseFallsBackToUniform) {
  AdaptiveSlotController c(100.0, 4);
  for (int w = 0; w < 4; ++w) c.observe(obs(w, 0, 0.0, 0), 10.0);
  ASSERT_EQ(c.phases_completed(), 1);
  EXPECT_EQ(c.active_slots(), 4);
  for (int w = 0; w < 4; ++w) {
    EXPECT_DOUBLE_EQ(c.width(w), c.estimated_interval() / 4);
  }
}

TEST(AdaptiveSlotController, PlanIsADeterministicFunctionOfHistory) {
  // Identical observation sequences yield bit-identical plans — the
  // property Strategies.AdaptiveSlotsBeatStaticOnImbalancedAmr's rerun
  // check relies on end to end.
  const auto feed = [](AdaptiveSlotController& c) {
    for (int phase = 0; phase < 3; ++phase) {
      for (int w = 0; w < 3; ++w) {
        c.observe(obs(w, phase, 1.0 + w * 0.5 + phase * 0.1,
                      (w + 1) * 1000), 10.0 * (phase + 1));
      }
    }
  };
  AdaptiveSlotController a(50.0, 3);
  AdaptiveSlotController b(50.0, 3);
  feed(a);
  feed(b);
  ASSERT_EQ(a.phases_completed(), b.phases_completed());
  for (int w = 0; w < 3; ++w) {
    EXPECT_DOUBLE_EQ(a.offset(w), b.offset(w));
    EXPECT_DOUBLE_EQ(a.width(w), b.width(w));
  }
}

TEST(AdaptiveSlotController, DuplicateReportsDoNotDoubleCount) {
  AdaptiveSlotController c(100.0, 2);
  c.observe(obs(0, 0, 1.0, 100), 1.0);
  c.observe(obs(0, 0, 2.0, 100), 2.0);  // overwrite, not a new writer
  EXPECT_EQ(c.phases_completed(), 0);
  c.observe(obs(1, 0, 1.0, 100), 3.0);
  EXPECT_EQ(c.phases_completed(), 1);
}

TEST(AdaptiveSlotController, OutOfRangeWritersAreIgnoredOrWrapped) {
  AdaptiveSlotController c(100.0, 2);
  c.observe(obs(-1, 0, 1.0, 100), 1.0);  // dropped
  c.observe(obs(7, 0, 1.0, 100), 1.0);   // dropped
  EXPECT_EQ(c.phases_completed(), 0);
  // Queries wrap like the static scheduler's writer ids.
  EXPECT_DOUBLE_EQ(c.offset(2), c.offset(0));
  EXPECT_DOUBLE_EQ(c.offset(-1), c.offset(1));
}

}  // namespace
}  // namespace dmr::sched
