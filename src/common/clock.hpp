// The one wall clock of the real code paths: the middleware, the
// monitor, the benchmarks and the examples all time themselves with
// WallClock. The simulator never reads it; its time is SimTime
// (units.hpp), and dmr_verify's det-wall-in-sim rule flags a
// WallClock::now() reachable from simulation code.
#pragma once

#include <chrono>

namespace dmr {

using WallClock = std::chrono::steady_clock;

/// Wall seconds elapsed since `t0`.
inline double seconds_since(WallClock::time_point t0) {
  return std::chrono::duration<double>(WallClock::now() - t0).count();
}

}  // namespace dmr
