/**
 * @file
 * Unit tests for statistics helpers (percentile, LatencySample).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/logging.hh"
#include "core/rng.hh"
#include "core/stats.hh"

namespace recperf {
namespace {

TEST(Percentile, KnownValues)
{
    std::vector<double> v = {1, 2, 3, 4, 5};
    EXPECT_EQ(percentile(v, 0), 1.0);
    EXPECT_EQ(percentile(v, 50), 3.0);
    EXPECT_EQ(percentile(v, 100), 5.0);
    EXPECT_EQ(percentile(v, 25), 2.0);
    EXPECT_NEAR(percentile(v, 10), 1.4, 1e-12);
}

TEST(Percentile, UnsortedInput)
{
    std::vector<double> v = {9, 1, 5, 3, 7};
    EXPECT_EQ(percentile(v, 50), 5.0);
}

TEST(Percentile, SingleSample)
{
    EXPECT_EQ(percentile({42.0}, 0), 42.0);
    EXPECT_EQ(percentile({42.0}, 99), 42.0);
}

TEST(Percentile, EmptyPanics)
{
    EXPECT_THROW(percentile({}, 50), PanicError);
}

TEST(Percentile, OutOfRangePanics)
{
    EXPECT_THROW(percentile({1.0}, -1), PanicError);
    EXPECT_THROW(percentile({1.0}, 101), PanicError);
}

TEST(Percentile, MonotoneInPct)
{
    Rng rng(3);
    std::vector<double> v;
    for (int i = 0; i < 200; ++i)
        v.push_back(rng.nextDouble());
    double prev = percentile(v, 0);
    for (double p = 5; p <= 100; p += 5) {
        double cur = percentile(v, p);
        EXPECT_GE(cur, prev);
        prev = cur;
    }
}

TEST(LatencySample, BasicStats)
{
    LatencySample s;
    EXPECT_TRUE(s.empty());
    for (double x : {3.0, 1.0, 2.0})
        s.add(x);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_NEAR(s.mean(), 2.0, 1e-12);
    EXPECT_EQ(s.min(), 1.0);
    EXPECT_EQ(s.max(), 3.0);
    EXPECT_EQ(s.p(50), 2.0);
}

TEST(LatencySample, ClearResets)
{
    LatencySample s;
    s.add(1.0);
    s.clear();
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.mean(), 0.0);
}

} // namespace
} // namespace recperf
