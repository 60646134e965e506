// Result collection for one benchmark run: named metrics with units,
// output checks counted as attempted/failed, latency summaries, and the
// in-memory span recorder of the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of `v` (sorts its argument).
double median(std::vector<double> v);

/// Linear-interpolated percentile of an already sorted vector.
double percentile_sorted(const std::vector<double>& sorted, double p);

/// The latency tail: the highest percentile of the ladder 90 / 99 that
/// still has at least ten samples beyond it (the maximum when there are
/// fewer than ten samples in all). The ladder stops at p99: on the 4 KiB
/// workload p99.9 moves with the host's scheduling noise (89 to 129 us
/// over six runs) while p99 stays within a few percent. It skips p95:
/// on ckpt-24m some 5-10 % of iterations meet a disturbed host, so p95
/// sat on the edge between the undisturbed and the disturbed writes and
/// its spread over ten runs was 22 % of its median.
struct Tail {
  double percentile = 100.0;
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
Tail tail_of(std::vector<double> samples);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// One human-readable line, printed before the result line.
  void note(const std::string& line);
  /// Counts one output check; a failed one also prints a note.
  void check(bool ok, const std::string& what);
  /// Counts `attempted` operations of which `failed` did not succeed.
  void operations(std::uint64_t attempted, std::uint64_t failed,
                  const std::string& what);

  bool correct() const { return failed_ == 0 && attempted_ > 0; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// Prints the notes, then the one-line JSON result.
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Spans the benchmark records around its calls into each layer. Each
/// thread records into its own lane; a span's parent is an index into
/// the same lane (-1 for a root). Spans stay in memory until write().
struct Span {
  const char* name = "";
  const char* layer = "";   // core, shm, format, plugin, des, strategies
  const char* stage = "";   // iopath::stage_name where one matches
  double start = 0.0;       // seconds since the recorder's epoch
  double end = 0.0;
  int parent = -1;
  std::int64_t iteration = -1;
};

class SpanLane {
 public:
  explicit SpanLane(Clock::time_point epoch) : epoch_(epoch) {}
  /// Opens a span under the innermost open one; returns its index.
  int begin(const char* name, const char* layer, const char* stage,
            std::int64_t iteration);
  void end(int index);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class SpanRecorder {
 public:
  SpanRecorder() : epoch_(Clock::now()) {}
  /// A new lane for one thread; lanes are stable until the recorder dies.
  SpanLane& lane();
  /// Self time per layer in milliseconds: each span's duration minus the
  /// part its children cover, summed by layer.
  std::vector<std::pair<std::string, double>> self_ms(
      const std::vector<std::string>& layers) const;
  /// Writes the spans as Chrome trace JSON ("X" events, one tid per
  /// lane), at most kMaxWrittenSpans of them; self_ms() uses all.
  bool write(const std::string& path) const;
  static constexpr std::size_t kMaxWrittenSpans = 200000;
  std::size_t size() const;

 private:
  Clock::time_point epoch_;
  std::vector<std::unique_ptr<SpanLane>> lanes_;
};

/// RAII span on a lane; a null lane records nothing (the untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanLane* lane, const char* name, const char* layer,
             const char* stage, std::int64_t iteration = -1)
      : lane_(lane),
        index_(lane ? lane->begin(name, layer, stage, iteration) : -1) {}
  ~ScopedSpan() {
    if (lane_) lane_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLane* lane_;
  int index_;
};

}  // namespace e2e
