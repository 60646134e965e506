#include "trace/jitter_report.hpp"

#include <algorithm>
#include <cstdio>

#include "common/json_string.hpp"

namespace dmr::trace {

namespace {

std::string num6(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

JitterSummary JitterSummary::of(const Sample& s) {
  JitterSummary j;
  j.count = s.count();
  if (s.empty()) return j;
  j.mean = s.mean();
  j.stddev = s.stddev();
  j.min = s.min();
  j.p50 = s.percentile(50.0);
  j.p95 = s.percentile(95.0);
  j.max = s.max();
  j.spread = j.max - j.mean;
  return j;
}

std::vector<std::uint64_t> histogram(const Sample& s, int bins, double lo,
                                     double hi) {
  if (bins < 1) bins = 1;
  std::vector<std::uint64_t> out(static_cast<std::size_t>(bins), 0);
  if (s.empty()) return out;
  const double width = hi > lo ? (hi - lo) / bins : 0.0;
  for (double v : s.values()) {
    int b = width > 0.0 ? static_cast<int>((v - lo) / width) : 0;
    b = std::clamp(b, 0, bins - 1);
    ++out[static_cast<std::size_t>(b)];
  }
  return out;
}

void JitterReport::add(std::string group, std::string label, const Sample& s,
                       int hist_bins) {
  JitterEntry e;
  e.group = std::move(group);
  e.label = std::move(label);
  e.summary = JitterSummary::of(s);
  e.hist_lo = s.empty() ? 0.0 : s.min();
  e.hist_hi = s.empty() ? 0.0 : s.max();
  e.hist = histogram(s, hist_bins, e.hist_lo, e.hist_hi);
  entries_.push_back(std::move(e));
}

Table JitterReport::to_table() const {
  Table t({"group", "label", "n", "mean", "p50", "p95", "max", "spread"});
  for (const JitterEntry& e : entries_) {
    t.add_row({e.group, e.label, std::to_string(e.summary.count),
               Table::num(e.summary.mean, 3), Table::num(e.summary.p50, 3),
               Table::num(e.summary.p95, 3), Table::num(e.summary.max, 3),
               Table::num(e.summary.spread, 3)});
  }
  return t;
}

std::string JitterReport::to_json() const {
  std::string out = "[";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const JitterEntry& e = entries_[i];
    if (i > 0) out += ",";
    out += "\n    {\"group\": " + json_string(e.group);
    out += ", \"label\": " + json_string(e.label);
    out += ", \"n\": " + std::to_string(e.summary.count);
    out += ", \"mean\": " + num6(e.summary.mean);
    out += ", \"stddev\": " + num6(e.summary.stddev);
    out += ", \"min\": " + num6(e.summary.min);
    out += ", \"p50\": " + num6(e.summary.p50);
    out += ", \"p95\": " + num6(e.summary.p95);
    out += ", \"max\": " + num6(e.summary.max);
    out += ", \"spread\": " + num6(e.summary.spread);
    out += ", \"hist_lo\": " + num6(e.hist_lo);
    out += ", \"hist_hi\": " + num6(e.hist_hi);
    out += ", \"hist\": [";
    for (std::size_t b = 0; b < e.hist.size(); ++b) {
      if (b > 0) out += ", ";
      out += std::to_string(e.hist[b]);
    }
    out += "]}";
  }
  out += entries_.empty() ? "]" : "\n  ]";
  return out;
}

}  // namespace dmr::trace
