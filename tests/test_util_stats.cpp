#include "moas/util/stats.h"

#include <gtest/gtest.h>

#include "moas/util/assert.h"

namespace moas::util {
namespace {

TEST(Accumulator, BasicMoments) {
  Accumulator acc;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) acc.add(v);
  EXPECT_EQ(acc.count(), 5u);
  EXPECT_DOUBLE_EQ(acc.mean(), 3.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 2.5);  // sample variance
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 5.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 15.0);
}

TEST(Accumulator, SingleValue) {
  Accumulator acc;
  acc.add(7.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 7.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.stddev(), 0.0);
}

TEST(Accumulator, EmptyThrowsOnMean) {
  Accumulator acc;
  EXPECT_THROW(acc.mean(), std::invalid_argument);
  EXPECT_THROW(acc.min(), std::invalid_argument);
  EXPECT_THROW(acc.max(), std::invalid_argument);
}

TEST(Accumulator, NegativeValues) {
  Accumulator acc;
  acc.add(-5.0);
  acc.add(5.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.min(), -5.0);
  EXPECT_DOUBLE_EQ(acc.max(), 5.0);
}

TEST(Median, OddCount) { EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0); }

TEST(Median, EvenCountAveragesMiddlePair) {
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Median, SingleElement) { EXPECT_DOUBLE_EQ(median({42.0}), 42.0); }

TEST(Median, EmptyThrows) { EXPECT_THROW(median({}), std::invalid_argument); }

TEST(Percentile, Extremes) {
  std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 4.0);
}

TEST(Percentile, Interpolates) {
  std::vector<double> xs{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 5.0);
}

TEST(Percentile, OutOfRangeThrows) {
  EXPECT_THROW(percentile({1.0}, -1.0), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 101.0), std::invalid_argument);
}

TEST(Histogram, CountsAndTotal) {
  Histogram hist;
  hist.add(1);
  hist.add(1);
  hist.add(5, 3);
  EXPECT_EQ(hist.count(1), 2u);
  EXPECT_EQ(hist.count(5), 3u);
  EXPECT_EQ(hist.count(99), 0u);
  EXPECT_EQ(hist.total(), 5u);
}

TEST(Histogram, Fractions) {
  Histogram hist;
  hist.add(1, 3);
  hist.add(2, 1);
  EXPECT_DOUBLE_EQ(hist.fraction(1), 0.75);
  EXPECT_DOUBLE_EQ(hist.fraction(2), 0.25);
  EXPECT_DOUBLE_EQ(hist.fraction(3), 0.0);
}

TEST(Histogram, EmptyFractionIsZero) {
  Histogram hist;
  EXPECT_DOUBLE_EQ(hist.fraction(1), 0.0);
  EXPECT_TRUE(hist.empty());
}

TEST(Histogram, BinsSortedByKey) {
  Histogram hist;
  hist.add(5);
  hist.add(-2);
  hist.add(3);
  const auto bins = hist.bins();
  ASSERT_EQ(bins.size(), 3u);
  EXPECT_EQ(bins[0].first, -2);
  EXPECT_EQ(bins[1].first, 3);
  EXPECT_EQ(bins[2].first, 5);
}

TEST(Histogram, MinMaxKeys) {
  Histogram hist;
  hist.add(10);
  hist.add(-4);
  EXPECT_EQ(hist.min_key(), -4);
  EXPECT_EQ(hist.max_key(), 10);
}

TEST(Histogram, MinKeyOfEmptyThrows) {
  Histogram hist;
  EXPECT_THROW(hist.min_key(), std::invalid_argument);
}

}  // namespace
}  // namespace moas::util
