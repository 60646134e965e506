#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>

namespace e2e {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return percentile_sorted(v, 50.0);
}

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

Tail tail_of(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  Tail t;
  t.samples = samples.size();
  if (samples.empty()) return t;
  t.value = samples.back();
  for (const double p : {99.0, 90.0}) {
    const double beyond = static_cast<double>(samples.size()) * (1.0 - p / 100.0);
    if (beyond >= 10.0) {
      t.percentile = p;
      t.value = percentile_sorted(samples, p);
      t.beyond = static_cast<std::size_t>(beyond);
      break;
    }
  }
  return t;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    note("CHECK FAILED: " + what);
  }
}

void Report::operations(std::uint64_t attempted, std::uint64_t failed,
                        const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) {
    note("FAILED: " + std::to_string(failed) + " of " +
         std::to_string(attempted) + " " + what);
  }
}

void Report::print() const {
  for (const std::string& n : notes_) std::printf("# %s\n", n.c_str());
  std::string j = "{\"correct\": ";
  j += correct() ? "true" : "false";
  j += ", \"attempted\": " + std::to_string(attempted_);
  j += ", \"failed\": " + std::to_string(failed_);
  j += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    char num[64];
    // Every digit as measured; JSON has no NaN/Inf, so those become 0.
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) j += ", ";
    j += "\"" + m.name + "\": {\"value\": " + num + ", \"unit\": \"" +
         m.unit + "\"}";
  }
  j += "}}";
  std::printf("%s\n", j.c_str());
  std::fflush(stdout);
}

int SpanLane::begin(const char* name, const char* layer, const char* stage,
                    std::int64_t iteration) {
  Span s;
  s.name = name;
  s.layer = layer;
  s.stage = stage;
  s.parent = open_.empty() ? -1 : open_.back();
  s.iteration = iteration;
  s.start = std::chrono::duration<double>(Clock::now() - epoch_).count();
  spans_.push_back(s);
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanLane::end(int index) {
  spans_[static_cast<std::size_t>(index)].end =
      std::chrono::duration<double>(Clock::now() - epoch_).count();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

SpanLane& SpanRecorder::lane() {
  lanes_.push_back(std::make_unique<SpanLane>(epoch_));
  return *lanes_.back();
}

std::size_t SpanRecorder::size() const {
  std::size_t n = 0;
  for (const auto& l : lanes_) n += l->spans().size();
  return n;
}

std::vector<std::pair<std::string, double>> SpanRecorder::self_ms(
    const std::vector<std::string>& layers) const {
  std::map<std::string, double> self;
  for (const auto& lane : lanes_) {
    const std::vector<Span>& spans = lane->spans();
    std::vector<double> child(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      self[spans[i].layer] += (spans[i].end - spans[i].start - child[i]) * 1e3;
    }
  }
  std::vector<std::pair<std::string, double>> out;
  for (const std::string& layer : layers) out.emplace_back(layer, self[layer]);
  return out;
}

bool SpanRecorder::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [");
  bool first = true;
  std::size_t written = 0;
  for (std::size_t tid = 0; tid < lanes_.size(); ++tid) {
    for (const Span& s : lanes_[tid]->spans()) {
      if (++written > kMaxWrittenSpans) break;
      std::fprintf(f,
                   "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %zu, "
                   "\"args\": {\"stage\": \"%s\", \"parent\": %d, "
                   "\"iteration\": %lld}}",
                   first ? "" : ",", s.name, s.layer, s.start * 1e6,
                   (s.end - s.start) * 1e6, tid, s.stage, s.parent,
                   static_cast<long long>(s.iteration));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace e2e
