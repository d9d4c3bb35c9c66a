#include <gtest/gtest.h>

#include "common/stats.hh"

using namespace qei;

TEST(Counter, StartsAtZero)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, IncrementsByAmount)
{
    Counter c;
    c.inc();
    c.inc(5);
    EXPECT_EQ(c.value(), 6u);
}

TEST(Counter, Resets)
{
    Counter c;
    c.inc(10);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(ScalarStat, TracksMinMaxMean)
{
    ScalarStat s;
    s.sample(2.0);
    s.sample(4.0);
    s.sample(9.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 15.0);
}

TEST(ScalarStat, EmptyMeanIsZero)
{
    ScalarStat s;
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(ScalarStat, NegativeSamples)
{
    ScalarStat s;
    s.sample(-3.0);
    s.sample(1.0);
    EXPECT_DOUBLE_EQ(s.min(), -3.0);
    EXPECT_DOUBLE_EQ(s.max(), 1.0);
}

TEST(ScalarStat, ResetLeavesMinMaxDefined)
{
    ScalarStat s;
    s.sample(-7.0);
    s.sample(42.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 0.0);
    // The first sample after a reset must re-arm min/max rather than
    // compare against stale extrema from before the reset.
    s.sample(5.0);
    EXPECT_DOUBLE_EQ(s.min(), 5.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
    s.sample(3.0);
    EXPECT_DOUBLE_EQ(s.min(), 3.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(ScalarStat, EmptyMinMaxAreZero)
{
    ScalarStat s;
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(Histogram, BucketsSamples)
{
    Histogram h(10.0, 4); // [0,10) [10,20) [20,30) [30,+)
    h.sample(5.0);
    h.sample(15.0);
    h.sample(15.0);
    h.sample(99.0); // clamps to last bucket
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[1], 2u);
    EXPECT_EQ(h.buckets()[3], 1u);
}

TEST(Histogram, PercentileMonotone)
{
    Histogram h(1.0, 128);
    for (int i = 0; i < 100; ++i)
        h.sample(static_cast<double>(i));
    EXPECT_LE(h.percentile(0.50), h.percentile(0.90));
    EXPECT_LE(h.percentile(0.90), h.percentile(0.99));
}

TEST(Histogram, NonPositiveWidthClampsToOne)
{
    Histogram h(0.0, 4);
    EXPECT_DOUBLE_EQ(h.bucketWidth(), 1.0);
    h.sample(2.5); // must not divide by zero
    EXPECT_EQ(h.buckets()[2], 1u);

    Histogram neg(-3.0, 4);
    EXPECT_DOUBLE_EQ(neg.bucketWidth(), 1.0);
    neg.sample(1.0);
    EXPECT_EQ(neg.buckets()[1], 1u);
}

TEST(Histogram, ZeroBucketCountClampsToOne)
{
    Histogram h(10.0, 0);
    EXPECT_EQ(h.buckets().size(), 1u);
    h.sample(123.0); // must not index into an empty vector
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.scalar().count(), 1u);
}

TEST(Histogram, PercentileEmptyIsZero)
{
    Histogram h;
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
}
