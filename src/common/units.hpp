// Byte and time units used throughout the Damaris reproduction.
//
// Simulated time is a plain double in seconds (the discrete-event engine
// never needs sub-nanosecond resolution and doubles keep the arithmetic
// simple and fast). Byte quantities are std::uint64_t.
#pragma once

#include <cstdint>
#include <string>

namespace dmr {

/// Simulated time in seconds.
using SimTime = double;

/// Byte count.
using Bytes = std::uint64_t;

inline constexpr Bytes KiB = 1024;
inline constexpr Bytes MiB = 1024 * KiB;
inline constexpr Bytes GiB = 1024 * MiB;

inline constexpr double kMicro = 1e-6;
inline constexpr double kMilli = 1e-3;

/// Formats a byte count with a binary suffix, e.g. "24.0 MiB".
std::string format_bytes(Bytes b);

/// Formats a throughput in bytes/second, e.g. "4.32 GiB/s".
std::string format_rate(double bytes_per_sec);

}  // namespace dmr
