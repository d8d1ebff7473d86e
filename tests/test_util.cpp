// Unit tests for src/util: RNG determinism and stream independence,
// statistics math, histograms, and the table emitter.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "util/histogram.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace arbmis {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  util::Rng a(42);
  util::Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  util::Rng a(1);
  util::Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 2);
}

TEST(Rng, Uniform01InRange) {
  util::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  util::Rng rng(11);
  double sum = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / kDraws, 0.5, 0.01);
}

TEST(Rng, BelowRespectsBound) {
  util::Rng rng(3);
  for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 100ULL, 1ULL << 40}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(bound), bound);
  }
  EXPECT_EQ(rng.below(0), 0u);
}

TEST(Rng, BelowIsRoughlyUniform) {
  util::Rng rng(5);
  constexpr std::uint64_t kBound = 10;
  constexpr int kDraws = 100000;
  std::vector<int> counts(kBound, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[rng.below(kBound)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), kDraws / 10.0, kDraws / 10.0 * 0.15);
  }
}

TEST(Rng, RangeInclusive) {
  util::Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t x = rng.range(-3, 3);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 3);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, ChildStreamsAreIndependentOfCreationOrder) {
  const util::Rng base(1234);
  util::Rng c5_first = base.child(5);
  util::Rng c9 = base.child(9);
  util::Rng c5_second = base.child(5);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(c5_first.next(), c5_second.next());
  }
  // Distinct ids give distinct streams.
  util::Rng c5 = base.child(5);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (c5.next() == c9.next());
  EXPECT_LT(same, 2);
}

TEST(Rng, ChildDoesNotPerturbParent) {
  util::Rng a(77);
  util::Rng b(77);
  (void)a.child(3);
  EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BernoulliMatchesProbability) {
  util::Rng rng(13);
  int hits = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / static_cast<double>(kDraws), 0.3, 0.01);
}

TEST(RunningStats, Empty) {
  util::RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
}

TEST(RunningStats, KnownValues) {
  util::RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  util::Rng rng(21);
  util::RunningStats all;
  util::RunningStats left;
  util::RunningStats right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform01() * 10 - 5;
    all.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
}

TEST(Quantile, Interpolates) {
  const std::vector<double> sorted{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(util::quantile(sorted, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(util::quantile(sorted, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(util::quantile(sorted, 0.5), 2.5);
}

TEST(Quantile, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(util::quantile({}, 0.5), 0.0);
}

TEST(WilsonInterval, ContainsTruthAndShrinks) {
  const util::Interval wide = util::wilson_interval(30, 100);
  const util::Interval narrow = util::wilson_interval(3000, 10000);
  EXPECT_TRUE(wide.contains(0.3));
  EXPECT_TRUE(narrow.contains(0.3));
  EXPECT_LT(narrow.hi - narrow.lo, wide.hi - wide.lo);
}

TEST(WilsonInterval, ZeroTrials) {
  const util::Interval interval = util::wilson_interval(0, 0);
  EXPECT_DOUBLE_EQ(interval.lo, 0.0);
  EXPECT_DOUBLE_EQ(interval.hi, 1.0);
}

TEST(LinearFit, RecoversLine) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 50; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 * i + 2.0);
  }
  const util::LinearFit fit = util::linear_fit(xs, ys);
  EXPECT_NEAR(fit.slope, 3.0, 1e-9);
  EXPECT_NEAR(fit.intercept, 2.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
}

TEST(Correlation, SignMatchesTrend) {
  std::vector<double> xs, up, down;
  for (int i = 0; i < 20; ++i) {
    xs.push_back(i);
    up.push_back(2.0 * i + 1);
    down.push_back(-0.5 * i);
  }
  EXPECT_GT(util::correlation(xs, up), 0.99);
  EXPECT_LT(util::correlation(xs, down), -0.99);
}

TEST(BinomialCdf, MatchesKnownValues) {
  // P[Bin(10, 0.5) <= 5] = 0.623046875
  EXPECT_NEAR(util::binomial_cdf(5, 10, 0.5), 0.623046875, 1e-9);
  EXPECT_DOUBLE_EQ(util::binomial_cdf(10, 10, 0.3), 1.0);
  EXPECT_NEAR(util::binomial_cdf(0, 4, 0.5), 0.0625, 1e-12);
}

TEST(LogBinomial, MatchesSmallCases) {
  EXPECT_NEAR(std::exp(util::log_binomial(5, 2)), 10.0, 1e-9);
  EXPECT_NEAR(std::exp(util::log_binomial(10, 5)), 252.0, 1e-6);
  EXPECT_EQ(util::log_binomial(3, 5),
            -std::numeric_limits<double>::infinity());
}

TEST(Histogram, BucketsAndOverflow) {
  util::Histogram h(0.0, 10.0, 5);
  h.add(-1.0);
  h.add(0.0);
  h.add(1.9);
  h.add(5.0);
  h.add(10.0);
  h.add(25.0);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.bucket(0), 2u);  // 0.0 and 1.9
  EXPECT_EQ(h.bucket(2), 1u);  // 5.0
  EXPECT_EQ(h.total(), 6u);
}

TEST(Log2Histogram, PowerBuckets) {
  util::Log2Histogram h;
  h.add(0);
  h.add(1);
  h.add(2);
  h.add(3);
  h.add(1024);
  EXPECT_EQ(h.zero_count(), 1u);
  EXPECT_EQ(h.bucket(0), 1u);  // [1,2)
  EXPECT_EQ(h.bucket(1), 2u);  // [2,4)
  EXPECT_EQ(h.bucket(10), 1u);
  EXPECT_EQ(h.max_value(), 1024u);
}

TEST(Log2Histogram, CountedAddEqualsRepeatedAdds) {
  util::Log2Histogram bulk;
  util::Log2Histogram single;
  for (const std::uint64_t x : {0u, 1u, 7u, 8u, 72u, 1024u}) {
    const std::uint64_t count = x % 5 + 1;
    bulk.add(x, count);
    for (std::uint64_t i = 0; i < count; ++i) single.add(x);
  }
  EXPECT_EQ(bulk, single);
  EXPECT_EQ(bulk.total(), 1u + 2u + 3u + 4u + 3u + 5u);

  // A zero count is a no-op: it must not raise max_value or add a bucket.
  const util::Log2Histogram before = bulk;
  bulk.add(std::uint64_t{1} << 40, 0);
  bulk.add(0, 0);
  EXPECT_EQ(bulk, before);
  EXPECT_EQ(bulk.bucket_count(), before.bucket_count());
}

TEST(Table, AlignsAndEmitsCsv) {
  util::Table table({"name", "count", "ratio"});
  table.row().cell("alpha").cell(std::uint64_t{12}).cell(0.5);
  table.row().cell("beta,x").cell(std::uint64_t{3}).cell(1.25);
  std::ostringstream pretty;
  table.print(pretty);
  EXPECT_NE(pretty.str().find("alpha"), std::string::npos);
  EXPECT_NE(pretty.str().find("----"), std::string::npos);

  std::ostringstream csv;
  table.print_csv(csv);
  EXPECT_NE(csv.str().find("name,count,ratio"), std::string::npos);
  EXPECT_NE(csv.str().find("\"beta,x\""), std::string::npos);
}

TEST(Table, CellAt) {
  util::Table table({"a", "b"});
  table.row().cell(std::uint64_t{1}).cell(std::uint64_t{2});
  EXPECT_EQ(table.at(0, 0), "1");
  EXPECT_EQ(table.at(0, 1), "2");
  EXPECT_EQ(table.num_rows(), 1u);
  EXPECT_EQ(table.num_columns(), 2u);
}

}  // namespace
}  // namespace arbmis
