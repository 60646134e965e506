// Shared helpers for the bench binaries.
#pragma once

#include <cstdio>
#include <string>

#include "common/table.hpp"
#include "common/units.hpp"

namespace dmr::bench {

inline void banner(const char* experiment, const char* paper_ref,
                   const char* expectation) {
  std::printf("==========================================================\n");
  std::printf("%s\n", experiment);
  std::printf("Reproduces: %s\n", paper_ref);
  std::printf("Paper expectation: %s\n", expectation);
  std::printf("==========================================================\n");
}

inline std::string gib_per_s(double bytes_per_sec) {
  return Table::num(bytes_per_sec / static_cast<double>(GiB), 2);
}

inline std::string mib_per_s(double bytes_per_sec) {
  return Table::num(bytes_per_sec / static_cast<double>(MiB), 0);
}

/// Writes `content` to `path`. Returns false, with a message on stderr,
/// when the open, the write or the close fails: a buffered write to a
/// full device only fails at fclose.
inline bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  const bool written =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  const bool closed = std::fclose(f) == 0;
  if (!written || !closed) {
    std::fprintf(stderr, "write to %s failed\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace dmr::bench
