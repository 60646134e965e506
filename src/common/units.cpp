#include "common/units.hpp"

#include <array>
#include <cstdio>

namespace dmr {

namespace {

std::string format_scaled(double value, const char* unit) {
  char buf[64];
  if (value >= 100.0) {
    std::snprintf(buf, sizeof(buf), "%.0f %s", value, unit);
  } else if (value >= 10.0) {
    std::snprintf(buf, sizeof(buf), "%.1f %s", value, unit);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f %s", value, unit);
  }
  return buf;
}

}  // namespace

std::string format_bytes(Bytes b) {
  const double v = static_cast<double>(b);
  if (b >= GiB) return format_scaled(v / static_cast<double>(GiB), "GiB");
  if (b >= MiB) return format_scaled(v / static_cast<double>(MiB), "MiB");
  if (b >= KiB) return format_scaled(v / static_cast<double>(KiB), "KiB");
  return format_scaled(v, "B");
}

std::string format_rate(double bytes_per_sec) {
  if (bytes_per_sec >= static_cast<double>(GiB)) {
    return format_scaled(bytes_per_sec / static_cast<double>(GiB), "GiB/s");
  }
  if (bytes_per_sec >= static_cast<double>(MiB)) {
    return format_scaled(bytes_per_sec / static_cast<double>(MiB), "MiB/s");
  }
  return format_scaled(bytes_per_sec / static_cast<double>(KiB), "KiB/s");
}

}  // namespace dmr
