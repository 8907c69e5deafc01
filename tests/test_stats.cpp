#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace resched {
namespace {

TEST(OnlineStats, EmptyDefaults) {
  const OnlineStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

TEST(OnlineStats, SingleValue) {
  OnlineStats stats;
  stats.add(5.0);
  EXPECT_EQ(stats.count(), 1u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.min(), 5.0);
  EXPECT_DOUBLE_EQ(stats.max(), 5.0);
}

TEST(OnlineStats, KnownMoments) {
  OnlineStats stats;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
    stats.add(v);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  // Sample variance with n-1 = 7: sum of squares = 32.
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(Percentile, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(percentile({3.0, 1.0, 2.0}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 2.0, 3.0}, 0.5), 2.5);
}

TEST(Percentile, Extremes) {
  const std::vector<double> v{5.0, 1.0, 9.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 9.0);
}

TEST(Percentile, Interpolates) {
  // Sorted: 10 20 30 40; p25 lands exactly between ranks 0 and 1 at 0.75:
  // 10 + 0.75*(20-10) = 17.5.
  EXPECT_DOUBLE_EQ(percentile({10.0, 20.0, 30.0, 40.0}, 0.25), 17.5);
}

TEST(Percentile, RejectsBadInput) {
  EXPECT_THROW((void)percentile({}, 0.5), std::invalid_argument);
  EXPECT_THROW((void)percentile({1.0}, 1.5), std::invalid_argument);
}

TEST(Percentiles, MatchesSingleQuantileQueries) {
  // The batched sort-once overload must agree exactly with the one-q
  // overload for every requested quantile.
  const std::vector<double> values{5.0, 1.0, 9.0, 3.0, 7.0, 2.0};
  const double qs[] = {0.0, 0.25, 0.5, 0.9, 1.0};
  const std::vector<double> batch = percentiles(values, qs);
  ASSERT_EQ(batch.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_DOUBLE_EQ(batch[i], percentile(values, qs[i])) << "q = " << qs[i];
}

TEST(Percentiles, UnsortedQuantilesKeepRequestOrder) {
  const std::vector<double> values{10.0, 20.0, 30.0, 40.0};
  const double qs[] = {1.0, 0.25, 0.0};
  const std::vector<double> batch = percentiles(values, qs);
  EXPECT_DOUBLE_EQ(batch[0], 40.0);
  EXPECT_DOUBLE_EQ(batch[1], 17.5);
  EXPECT_DOUBLE_EQ(batch[2], 10.0);
}

TEST(Percentiles, EmptyQuantileListIsEmptyResult) {
  EXPECT_TRUE(percentiles({1.0, 2.0}, {}).empty());
}

TEST(Percentiles, RejectsBadInput) {
  const double ok[] = {0.5};
  EXPECT_THROW((void)percentiles({}, ok), std::invalid_argument);
  const double bad[] = {0.5, -0.1};
  EXPECT_THROW((void)percentiles({1.0}, bad), std::invalid_argument);
}

}  // namespace
}  // namespace resched
