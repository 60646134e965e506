#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace dmr {
namespace {

// ---------------------------------------------------------------- units

TEST(Units, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(24 * MiB), "24.0 MiB");
  EXPECT_EQ(format_bytes(2 * GiB), "2.00 GiB");
  EXPECT_EQ(format_bytes(1536), "1.50 KiB");
}

TEST(Units, FormatRate) {
  EXPECT_EQ(format_rate(4.32 * static_cast<double>(GiB)), "4.32 GiB/s");
  EXPECT_EQ(format_rate(695.0 * static_cast<double>(MiB)), "695 MiB/s");
}

// --------------------------------------------------------------- status

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = out_of_memory("buffer full");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), ErrorCode::kOutOfMemory);
  EXPECT_EQ(s.to_string(), "OUT_OF_MEMORY: buffer full");
}

TEST(Status, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kInternal); ++c) {
    EXPECT_NE(error_code_name(static_cast<ErrorCode>(c)), "UNKNOWN");
  }
}

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(Result, HoldsError) {
  Result<int> r = not_found("nope");
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

// ------------------------------------------------------------------ rng

TEST(Rng, Deterministic) {
  Rng a(1234), b(1234);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, EntityStreamsDiffer) {
  Rng a = Rng::for_entity(99, 0);
  Rng b = Rng::for_entity(99, 1);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, EntityStreamsReproducible) {
  Rng a = Rng::for_entity(7, 42);
  Rng b = Rng::for_entity(7, 42);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(1);
  for (int i = 0; i < 10000; ++i) {
    double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, UniformRange) {
  Rng r(2);
  for (int i = 0; i < 1000; ++i) {
    double d = r.uniform(3.0, 5.0);
    EXPECT_GE(d, 3.0);
    EXPECT_LT(d, 5.0);
  }
}

TEST(Rng, NextBelowBounds) {
  Rng r(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    std::uint64_t v = r.next_below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit over 1000 draws
}

TEST(Rng, ExponentialMean) {
  Rng r(4);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.exponential(2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.05);
}

TEST(Rng, NormalMoments) {
  Rng r(5);
  double sum = 0, sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    double v = r.normal(10.0, 3.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
}

TEST(Rng, ParetoLowerBound) {
  Rng r(6);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(r.pareto(1.5, 2.0), 1.5);
  }
}

TEST(Rng, ChanceProbability) {
  Rng r(7);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.chance(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

// ---------------------------------------------------------------- stats

TEST(Accumulator, Empty) {
  Accumulator a;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.mean(), 0.0);
  EXPECT_EQ(a.variance(), 0.0);
}

TEST(Accumulator, Basic) {
  Accumulator a;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) a.add(v);
  EXPECT_EQ(a.count(), 8u);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  EXPECT_NEAR(a.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(a.min(), 2.0);
  EXPECT_EQ(a.max(), 9.0);
}

TEST(Accumulator, MergeMatchesSequential) {
  Rng r(8);
  Accumulator whole, left, right;
  for (int i = 0; i < 1000; ++i) {
    double v = r.normal(3, 2);
    whole.add(v);
    (i < 400 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_EQ(left.min(), whole.min());
  EXPECT_EQ(left.max(), whole.max());
}

TEST(Accumulator, MergeWithEmpty) {
  Accumulator a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Sample, Percentiles) {
  Sample s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(90), 90.1, 1e-9);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
}

TEST(Sample, SingleValue) {
  Sample s;
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.median(), 7.0);
  EXPECT_DOUBLE_EQ(s.percentile(99), 7.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Sample, AddAllAndDescribe) {
  Sample s;
  s.add_all({1.0, 2.0, 3.0});
  EXPECT_EQ(s.count(), 3u);
  EXPECT_NE(describe(s).find("n=3"), std::string::npos);
}

TEST(Sample, PercentileAfterIncrementalAdds) {
  Sample s;
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.median(), 5.0);
  s.add(1.0);  // cache must be invalidated
  s.add(9.0);
  EXPECT_DOUBLE_EQ(s.median(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

// ---------------------------------------------------------------- table

TEST(Table, Renders) {
  Table t({"cores", "time"});
  t.add_row({"576", "4.2"});
  t.add_row({"9216", "481.0"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("cores"), std::string::npos);
  EXPECT_NE(out.find("9216"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

}  // namespace
}  // namespace dmr
