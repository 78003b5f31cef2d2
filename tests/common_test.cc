// Unit tests for src/common: rng, token bucket, sliding windows, stats.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/common/ids.h"
#include "src/common/rng.h"
#include "src/common/sliding_window.h"
#include "src/common/stats.h"
#include "src/common/time.h"
#include "src/common/token_bucket.h"

namespace dcc {
namespace {

TEST(TimeTest, UnitsCompose) {
  EXPECT_EQ(Seconds(1), 1000 * Milliseconds(1));
  EXPECT_EQ(Milliseconds(1), 1000 * Microseconds(1));
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(3)), 3.0);
  EXPECT_DOUBLE_EQ(ToMilliseconds(Microseconds(1500)), 1.5);
}

TEST(TimeTest, FormatDuration) {
  EXPECT_EQ(FormatDuration(Seconds(2)), "2.000s");
  EXPECT_EQ(FormatDuration(Milliseconds(3)), "3.000ms");
  EXPECT_EQ(FormatDuration(Microseconds(7)), "7us");
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // All 7 values hit.
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBoolProbability) {
  Rng rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    hits += rng.NextBool(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, LabelsAreDnsSafe) {
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    const std::string label = rng.NextLabel(12);
    EXPECT_EQ(label.size(), 12u);
    for (char c : label) {
      EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) << c;
    }
  }
}

TEST(RngTest, ForkDecorrelates) {
  Rng parent(21);
  Rng child1 = parent.Fork(1);
  Rng child2 = parent.Fork(2);
  EXPECT_NE(child1.Next(), child2.Next());
}

TEST(TokenBucketTest, InitialBurstAvailable) {
  TokenBucket bucket(10.0, 5.0, 0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(bucket.TryConsume(0));
  }
  EXPECT_FALSE(bucket.TryConsume(0));
}

TEST(TokenBucketTest, RefillsAtRate) {
  TokenBucket bucket(10.0, 5.0, 0);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(bucket.TryConsume(0));
  }
  EXPECT_FALSE(bucket.TryConsume(0));
  // 10 tokens/s -> one token every 100 ms.
  EXPECT_TRUE(bucket.TryConsume(Milliseconds(100)));
  EXPECT_FALSE(bucket.TryConsume(Milliseconds(100)));
  EXPECT_TRUE(bucket.TryConsume(Milliseconds(200)));
}

TEST(TokenBucketTest, BurstCapsAccumulation) {
  TokenBucket bucket(10.0, 5.0, 0);
  EXPECT_DOUBLE_EQ(bucket.Available(Seconds(100)), 5.0);
}

TEST(TokenBucketTest, NextAvailablePredictsRefill) {
  TokenBucket bucket(10.0, 1.0, 0);
  ASSERT_TRUE(bucket.TryConsume(0));
  const Time next = bucket.NextAvailable(0);
  EXPECT_GT(next, 0);
  EXPECT_LE(next, Milliseconds(101));
  EXPECT_FALSE(bucket.CanConsume(next - 1000));
  EXPECT_TRUE(bucket.CanConsume(next));
}

TEST(TokenBucketTest, UnlimitedAlwaysAllows) {
  TokenBucket bucket(0.0, 0.0, 0);
  EXPECT_TRUE(bucket.unlimited());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(bucket.TryConsume(0));
  }
  EXPECT_EQ(bucket.NextAvailable(123), 123);
}

TEST(TokenBucketTest, SetRateClampsTokens) {
  TokenBucket bucket(10.0, 10.0, 0);
  bucket.SetRate(5.0, 2.0);
  EXPECT_LE(bucket.Available(0), 2.0);
}

TEST(SlidingWindowTest, CountsWithinWindow) {
  SlidingWindowCounter counter(Seconds(2), 8);
  counter.Add(0, 5);
  counter.Add(Milliseconds(500), 3);
  EXPECT_EQ(counter.Sum(Milliseconds(600)), 8);
}

TEST(SlidingWindowTest, ExpiresOldEvents) {
  SlidingWindowCounter counter(Seconds(2), 8);
  counter.Add(0, 5);
  EXPECT_EQ(counter.Sum(Seconds(1)), 5);
  EXPECT_EQ(counter.Sum(Seconds(3)), 0);
}

TEST(SlidingWindowTest, RollsBucketsIncrementally) {
  SlidingWindowCounter counter(Seconds(2), 4);  // 500 ms buckets.
  for (int i = 0; i < 8; ++i) {
    counter.Add(static_cast<Time>(i) * Milliseconds(500), 1);
  }
  // At t=3.5s, events from t in (1.5, 3.5] remain: 4 events.
  EXPECT_EQ(counter.Sum(Milliseconds(3500)), 4);
}

TEST(SlidingWindowTest, RateNormalizesPerSecond) {
  SlidingWindowCounter counter(Seconds(2), 8);
  counter.Add(Milliseconds(100), 20);
  EXPECT_NEAR(counter.Rate(Milliseconds(200)), 10.0, 0.01);
}

TEST(SlidingWindowTest, ResetClears) {
  SlidingWindowCounter counter(Seconds(2), 8);
  counter.Add(0, 5);
  counter.Reset();
  EXPECT_EQ(counter.Sum(0), 0);
}

TEST(SlidingWindowRatioTest, ComputesRatio) {
  SlidingWindowRatio ratio(Seconds(2), 8);
  for (int i = 0; i < 10; ++i) {
    ratio.AddTotal(Milliseconds(i * 10));
  }
  ratio.AddHit(Milliseconds(50));
  ratio.AddHit(Milliseconds(60));
  ratio.AddHit(Milliseconds(70));
  EXPECT_NEAR(ratio.Ratio(Milliseconds(100)), 0.3, 1e-9);
}

TEST(SlidingWindowRatioTest, ZeroTotalGivesZero) {
  SlidingWindowRatio ratio(Seconds(2), 8);
  EXPECT_DOUBLE_EQ(ratio.Ratio(0), 0.0);
}

TEST(OnlineStatsTest, MeanVarianceMinMax) {
  OnlineStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stats.Add(x);
  }
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-9);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(HistogramTest, QuantilesWithinRelativeError) {
  Histogram histogram(1.0, 1.05);
  for (int i = 1; i <= 10000; ++i) {
    histogram.Add(static_cast<double>(i));
  }
  EXPECT_NEAR(histogram.Quantile(0.5), 5000, 5000 * 0.06);
  EXPECT_NEAR(histogram.Quantile(0.99), 9900, 9900 * 0.06);
  EXPECT_EQ(histogram.count(), 10000);
}

TEST(HistogramTest, EmptyHistogramQuantilesAreZero) {
  Histogram histogram(1.0, 1.05);
  EXPECT_EQ(histogram.count(), 0);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(histogram.Quantile(1.0), 0.0);
  EXPECT_TRUE(histogram.Cdf().empty());
}

TEST(HistogramTest, SingleSampleLandsInItsBucket) {
  Histogram histogram(1.0, 1.05);
  histogram.Add(42.0);
  EXPECT_EQ(histogram.count(), 1);
  EXPECT_DOUBLE_EQ(histogram.mean(), 42.0);
  EXPECT_DOUBLE_EQ(histogram.min(), 42.0);
  EXPECT_DOUBLE_EQ(histogram.max(), 42.0);
  // Every positive quantile falls in the one occupied bucket (upper bound
  // within a growth factor of the sample).
  EXPECT_NEAR(histogram.Quantile(0.5), 42.0, 42.0 * 0.06);
  EXPECT_NEAR(histogram.Quantile(1.0), 42.0, 42.0 * 0.06);
}

TEST(HistogramTest, MergeOfDisjointRanges) {
  Histogram low(1.0, 1.05);
  Histogram high(1.0, 1.05);
  for (int i = 1; i <= 100; ++i) {
    low.Add(static_cast<double>(i));          // [1, 100]
    high.Add(static_cast<double>(1000 + i));  // [1001, 1100]
  }
  low.Merge(high);
  EXPECT_EQ(low.count(), 200);
  EXPECT_DOUBLE_EQ(low.min(), 1.0);
  EXPECT_DOUBLE_EQ(low.max(), 1100.0);
  // Below the median everything comes from the low range, above it from the
  // high range.
  EXPECT_LT(low.Quantile(0.25), 120.0);
  EXPECT_GT(low.Quantile(0.75), 950.0);
}

TEST(HistogramTest, ValuesBelowMinLandInFirstBucket) {
  Histogram histogram(10.0, 1.05);
  histogram.Add(0.001);
  histogram.Add(-5.0);
  histogram.Add(10.0);
  EXPECT_EQ(histogram.count(), 3);
  // All three sit in bucket 0, whose upper bound is min_value.
  EXPECT_DOUBLE_EQ(histogram.Quantile(1.0), 10.0);
  const auto cdf = histogram.Cdf();
  ASSERT_EQ(cdf.size(), 1u);
  EXPECT_DOUBLE_EQ(cdf[0].first, 10.0);
  EXPECT_DOUBLE_EQ(cdf[0].second, 1.0);
}

TEST(HistogramTest, CdfIsMonotonic) {
  Histogram histogram(1.0, 1.1);
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    histogram.Add(rng.NextExponential(100.0) + 1.0);
  }
  const auto cdf = histogram.Cdf();
  ASSERT_FALSE(cdf.empty());
  for (size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GT(cdf[i].first, cdf[i - 1].first);
    EXPECT_GE(cdf[i].second, cdf[i - 1].second);
  }
  EXPECT_NEAR(cdf.back().second, 1.0, 1e-9);
}

TEST(TimeSeriesTest, BucketsBySecond) {
  TimeSeries series(kSecond, Seconds(10));
  series.Add(Milliseconds(100));
  series.Add(Milliseconds(900));
  series.Add(Seconds(1) + Milliseconds(1));
  EXPECT_DOUBLE_EQ(series.ValueAt(0), 2.0);
  EXPECT_DOUBLE_EQ(series.ValueAt(1), 1.0);
  EXPECT_DOUBLE_EQ(series.RateAt(0), 2.0);
  EXPECT_DOUBLE_EQ(series.Total(), 3.0);
}

TEST(TimeSeriesTest, IgnoresOutOfHorizon) {
  TimeSeries series(kSecond, Seconds(2));
  series.Add(Seconds(5));
  series.Add(-Seconds(1));
  EXPECT_DOUBLE_EQ(series.Total(), 0.0);
}

TEST(TimeSeriesTest, MeanRateOverSlots) {
  TimeSeries series(kSecond, Seconds(4));
  series.Add(Milliseconds(500), 10);
  series.Add(Seconds(1) + Milliseconds(500), 20);
  EXPECT_DOUBLE_EQ(series.MeanRate(0, 2), 15.0);
}

TEST(JainIndexTest, PerfectFairnessIsOne) {
  EXPECT_DOUBLE_EQ(JainFairnessIndex({5, 5, 5, 5}), 1.0);
}

TEST(JainIndexTest, StarvationLowersIndex) {
  const double skewed = JainFairnessIndex({10, 0, 0, 0});
  EXPECT_NEAR(skewed, 0.25, 1e-9);
  EXPECT_LT(skewed, JainFairnessIndex({7, 1, 1, 1}));
}

TEST(IdsTest, FormatAddress) {
  EXPECT_EQ(FormatAddress(0x0a000001), "10.0.0.1");
  EXPECT_EQ(FormatAddress(0), "0.0.0.0");
  EXPECT_EQ(FormatAddress(0xffffffff), "255.255.255.255");
  EXPECT_EQ(FormatAddress(0xc0a8640a), "192.168.100.10");
  EXPECT_EQ(FormatEndpoint(Endpoint{0x7f000001, 53}), "127.0.0.1:53");
}

}  // namespace
}  // namespace dcc
