/**
 * @file
 * Tests for the next-line hardware prefetcher.
 */

#include <gtest/gtest.h>

#include "core/rng.hh"
#include "machine/machine_spec.hh"
#include "model/zoo.hh"
#include "simcache/hierarchy.hh"
#include "timing/model_timer.hh"
#include "trace/id_generator.hh"

namespace recperf {
namespace {

LevelConfig
l1cfg()
{
    return {4 * 1024, 4, 4};
}

LevelConfig
l2cfg()
{
    return {16 * 1024, 8, 12};
}

LevelConfig
l3cfg()
{
    return {64 * 1024, 16, 38};
}

TEST(Prefetch, OffByDefault)
{
    CacheHierarchy h(1, l1cfg(), l2cfg(), l3cfg(),
                     InclusionPolicy::Inclusive, 200);
    h.access(0, 0);
    EXPECT_EQ(h.prefetchedLines(), 0u);
    EXPECT_FALSE(h.l2(0).contains(64));
}

TEST(Prefetch, NextLineInstalledInL2)
{
    PrefetchConfig pf{true, 1};
    CacheHierarchy h(1, l1cfg(), l2cfg(), l3cfg(),
                     InclusionPolicy::Inclusive, 200, pf);
    EXPECT_EQ(h.access(0, 0), HitLevel::Memory);
    EXPECT_EQ(h.prefetchedLines(), 1u);
    EXPECT_TRUE(h.l2(0).contains(64));
    EXPECT_FALSE(h.l1(0).contains(64)); // L1 untouched
    // The demand access to the prefetched line now hits in L2.
    EXPECT_EQ(h.access(0, 64), HitLevel::L2);
}

TEST(Prefetch, DegreeTwoCoversTwoLines)
{
    PrefetchConfig pf{true, 2};
    CacheHierarchy h(1, l1cfg(), l2cfg(), l3cfg(),
                     InclusionPolicy::Inclusive, 200, pf);
    h.access(0, 0);
    EXPECT_TRUE(h.l2(0).contains(64));
    EXPECT_TRUE(h.l2(0).contains(128));
    EXPECT_EQ(h.prefetchedLines(), 2u);
}

TEST(Prefetch, InclusionInvariantPreserved)
{
    PrefetchConfig pf{true, 2};
    CacheHierarchy h(2, l1cfg(), l2cfg(), l3cfg(),
                     InclusionPolicy::Inclusive, 200, pf);
    Rng rng(3);
    for (int i = 0; i < 10'000; ++i) {
        h.access(static_cast<uint32_t>(rng.nextBelow(2)),
                 rng.nextBelow(1 << 18) * 64);
    }
    h.checkInclusionInvariant();
    EXPECT_GT(h.prefetchedLines(), 0u);
}

TEST(Prefetch, WorksOnExclusiveHierarchy)
{
    PrefetchConfig pf{true, 1};
    CacheHierarchy h(1, l1cfg(), l2cfg(), l3cfg(),
                     InclusionPolicy::Exclusive, 200, pf);
    h.access(0, 0);
    EXPECT_TRUE(h.l2(0).contains(64));
    EXPECT_FALSE(h.l3().contains(64)); // exclusive L3 not polluted
}

TEST(Prefetch, ExclusiveInstallTakesLineOutOfL3)
{
    // A prefetch that installs a line held by an exclusive L3 must move
    // it, as a demand L3 hit does, not copy it.
    PrefetchConfig pf{true, 1};
    CacheHierarchy h(1, {128, 2, 4}, {256, 2, 12}, {64 * 1024, 4, 38},
                     InclusionPolicy::Exclusive, 200, pf);
    h.access(0, 64);
    // Thrash line 64's L2 set until it spills into the L3.
    for (uint64_t a = 1; a <= 15; ++a)
        h.access(0, 4096 * a + 64);
    ASSERT_FALSE(h.l2(0).contains(64));
    ASSERT_TRUE(h.l3().contains(64));
    // The demand miss on line 0 prefetches line 64 into the L2.
    EXPECT_EQ(h.access(0, 0), HitLevel::Memory);
    EXPECT_TRUE(h.l2(0).contains(64));
    EXPECT_FALSE(h.l3().contains(64));
}

TEST(Prefetch, HalvesMissesForTwoLineRows)
{
    // Embedding rows of 128 B span two lines; the next-line prefetcher
    // should convert nearly all second-line demand misses into hits,
    // cutting SLS DRAM line misses roughly in half.
    auto sls_dram_lines = [](bool enable) {
        MachineSpec bdw = broadwell();
        bdw.prefetch.nextLine = enable;
        TimerOptions opts;
        opts.batch = 8;
        opts.repeatProb = 0.0; // mostly-miss traffic
        opts.zipfAlpha = 0.5;
        ModelTimer timer(bdw, rmc2Small(), opts);
        ModelTiming t = timer.steadyState(5, 5);
        return static_cast<double>(t.dramLines());
    };
    double off = sls_dram_lines(false);
    double on = sls_dram_lines(true);
    EXPECT_LT(on, 0.7 * off);
    EXPECT_GT(on, 0.3 * off);
}

} // namespace
} // namespace recperf
