// JSON string literals: the one escaper of every hand-written JSON
// writer in the tree (monitor::Json, the Chrome trace exporter, the
// jitter report, the figure JSON of experiments/report.cpp and
// dmr_verify's findings file). Header-only, so dmr_analysis, which
// links no project library, uses it too.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace dmr {

/// Appends `s` to `out` as a quoted JSON string: `"` and `\` escaped,
/// newline, carriage return and tab by name, every other control
/// character as \u00XX. Bytes from 0x80 up pass through unchanged.
inline void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

/// `s` as a quoted JSON string.
inline std::string json_string(std::string_view s) {
  std::string out;
  append_json_string(out, s);
  return out;
}

}  // namespace dmr
