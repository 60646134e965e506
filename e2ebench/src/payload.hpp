// Seeded, deterministic inputs: smooth CM1-like float32 fields, so the
// lossless codec sees a realistic ratio instead of a trivial one.
#pragma once

#include <cstdint>
#include <vector>

namespace e2e {

/// SplitMix64 finaliser over (a, b): independent streams per client and
/// variable from one run seed.
std::uint64_t mix(std::uint64_t a, std::uint64_t b);

/// A potential-temperature-like field around 300 K on an nx*ny*nz grid
/// (x fastest): stable stratification, a warm bubble, a gravity wave and
/// small noise, all drawn from `seed`.
std::vector<float> cm1_field(std::uint64_t seed, std::uint64_t nx,
                             std::uint64_t ny, std::uint64_t nz);

/// Element 0 of every block is rewritten each iteration, so a stale or
/// misplaced block fails the byte-equal read-back check.
inline float stamp(float base0, std::int64_t iteration) {
  return base0 + 1e-3f * static_cast<float>(iteration + 1);
}

}  // namespace e2e
