// Data-transfer scheduling (paper §IV-D "Data transfer scheduling").
//
// "Each dedicated core computes an estimation of the computation time of
// an iteration from a first run of the simulation. This time is then
// divided into as many slots as dedicated cores. Each dedicated core
// then waits for its slot before writing." — no inter-process
// communication involved; the estimate is purely local.
//
// The paper reports 13.1 GB/s instead of 9.7 GB/s on 2304 Kraken cores
// with this strategy.
//
// Degenerate inputs are handled, not asserted, so the scheduler can sit
// inside a pipeline stage fed by arbitrary configurations:
//   - a non-positive iteration estimate collapses every slot to width 0
//     at offset 0 (nobody waits — scheduling is a no-op until
//     update_estimate() learns a real duration);
//   - num_slots < 1 is treated as a single slot spanning the iteration;
//   - more writers than slots wrap around (writer_id % num_slots), so
//     surplus writers share slots round-robin instead of crashing.
#pragma once

#include <cstddef>

#include "common/units.hpp"

namespace dmr::sched {

/// Default smoothing factor for the iteration-estimate EMA. Overridable
/// per scheduler.
inline constexpr double kDefaultAlpha = 0.3;

class SlotScheduler {
 public:
  /// `estimated_iteration` is the expected time between two write
  /// phases (seconds). `writer_id` may exceed `num_slots` (it wraps).
  /// `alpha` is the EMA smoothing factor used by update_estimate();
  /// values outside (0, 1] are clamped into that range.
  SlotScheduler(SimTime estimated_iteration, int num_slots, int writer_id,
                double alpha = kDefaultAlpha);

  /// Start of this writer's slot, as an offset from the beginning of
  /// the iteration (in [0, estimated_iteration)).
  SimTime slot_start() const;

  /// Width of one slot (0 when the estimate is not yet positive).
  SimTime slot_width() const;

  /// How long a dedicated core that became ready `elapsed` seconds after
  /// the iteration started must still wait before writing (0 if its slot
  /// has already begun).
  SimTime wait_time(SimTime elapsed_since_iteration_start) const;

  /// Refines the iteration estimate from a measured duration
  /// (exponential moving average with the configured alpha).
  /// Non-positive measurements are ignored; the first positive
  /// measurement replaces a non-positive initial estimate outright.
  void update_estimate(SimTime measured_iteration);

  SimTime estimated_iteration() const { return estimate_; }
  int num_slots() const { return num_slots_; }
  /// The slot this writer lands in after wrapping.
  int slot_id() const { return slot_id_; }
  /// EMA smoothing factor after clamping into (0, 1].
  double alpha() const { return alpha_; }

 private:
  SimTime estimate_;
  int num_slots_;
  int slot_id_;
  double alpha_;
};

/// Clamps an EMA smoothing factor into the valid (0, 1] range; NaN and
/// non-positive values fall back to kDefaultAlpha.
double clamp_alpha(double alpha);

}  // namespace dmr::sched
