/**
 * @file
 * Property test: CacheHierarchy against the naive ReferenceHierarchy
 * (per-set LRU lists; every inclusive back-invalidation probes every
 * core's L2 and L1) under seeded random multi-core traffic on tiny
 * geometries, so evictions and back-invalidations are frequent. This
 * is the oracle for the core-presence mask and the skipped L1 probe:
 * any divergence in a hit level, a per-level counter or a resident
 * line is a simulator bug.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>

#include "core/rng.hh"
#include "reference_cache.hh"
#include "simcache/hierarchy.hh"

namespace recperf {
namespace {

struct OracleConfig
{
    InclusionPolicy policy;
    bool prefetch;
    uint32_t cores;
};

std::string
configName(const OracleConfig &c)
{
    return std::string(c.policy == InclusionPolicy::Inclusive ? "Inclusive"
                                                              : "Exclusive") +
        (c.prefetch ? "Prefetch" : "NoPrefetch") + std::to_string(c.cores) +
        "Cores";
}

void
PrintTo(const OracleConfig &c, std::ostream *os)
{
    *os << configName(c);
}

void
expectSameStats(const CacheStats &got, const CacheStats &want,
                const std::string &what)
{
    EXPECT_EQ(got.accesses, want.accesses) << what;
    EXPECT_EQ(got.hits, want.hits) << what;
    EXPECT_EQ(got.misses, want.misses) << what;
    EXPECT_EQ(got.evictions, want.evictions) << what;
    EXPECT_EQ(got.backInvalidations, want.backInvalidations) << what;
}

std::vector<uint64_t>
sortedLines(const Cache &c)
{
    auto lines = c.residentLines();
    std::sort(lines.begin(), lines.end());
    return lines;
}

class HierarchyOracle : public ::testing::TestWithParam<OracleConfig>
{
};

TEST_P(HierarchyOracle, AgreesWithReference)
{
    const OracleConfig cfg = GetParam();
    // 2-set L1s, 4-set L2s and a 12-set (not a power of two) L3.
    const LevelConfig l1{2 * 2 * 64, 2, 4};
    const LevelConfig l2{4 * 4 * 64, 4, 12};
    const LevelConfig l3{12 * 4 * 64, 4, 38};
    const PrefetchConfig pf{cfg.prefetch, 2};
    CacheHierarchy hier(cfg.cores, l1, l2, l3, cfg.policy, 200, pf);
    ReferenceHierarchy ref(cfg.cores, l1, l2, l3, cfg.policy, pf);

    Rng rng(0x5eed + cfg.cores);
    for (int step = 0; step < 60'000; ++step) {
        auto core = static_cast<uint32_t>(rng.nextBelow(cfg.cores));
        // Mostly a small shared pool, so cores share lines and the LLC
        // evicts lines other cores hold; now and then a high address.
        uint64_t addr = rng.nextBelow(160) * 64 + rng.nextBelow(64);
        if (rng.nextBelow(16) == 0)
            addr += uint64_t{1} << 44;
        ASSERT_EQ(hier.access(core, addr), ref.access(core, addr))
            << "step " << step << " core " << core;
    }

    EXPECT_EQ(hier.prefetchedLines(), ref.prefetchedLines());
    expectSameStats(hier.l3().stats(), ref.l3().stats(), "L3");
    EXPECT_EQ(sortedLines(hier.l3()), ref.l3().residentLines());
    uint64_t back_invalidations = 0;
    for (uint32_t c = 0; c < cfg.cores; ++c) {
        const std::string at = "[" + std::to_string(c) + "]";
        expectSameStats(hier.l1(c).stats(), ref.l1(c).stats(), "L1" + at);
        expectSameStats(hier.l2(c).stats(), ref.l2(c).stats(), "L2" + at);
        EXPECT_EQ(sortedLines(hier.l1(c)), ref.l1(c).residentLines()) << at;
        EXPECT_EQ(sortedLines(hier.l2(c)), ref.l2(c).residentLines()) << at;
        back_invalidations += hier.l2(c).stats().backInvalidations;
    }
    // The traffic must actually exercise the path under test.
    if (cfg.policy == InclusionPolicy::Inclusive) {
        EXPECT_GT(back_invalidations, 0u);
    }
    if (cfg.prefetch) {
        EXPECT_GT(hier.prefetchedLines(), 0u);
    }
    hier.checkInclusionInvariant();
}

INSTANTIATE_TEST_SUITE_P(
    Policies, HierarchyOracle,
    ::testing::Values(
        OracleConfig{InclusionPolicy::Inclusive, false, 1},
        OracleConfig{InclusionPolicy::Inclusive, false, 4},
        OracleConfig{InclusionPolicy::Inclusive, false, 33},
        OracleConfig{InclusionPolicy::Inclusive, true, 1},
        OracleConfig{InclusionPolicy::Inclusive, true, 4},
        OracleConfig{InclusionPolicy::Inclusive, true, 33},
        OracleConfig{InclusionPolicy::Exclusive, false, 1},
        OracleConfig{InclusionPolicy::Exclusive, false, 4},
        OracleConfig{InclusionPolicy::Exclusive, false, 33},
        OracleConfig{InclusionPolicy::Exclusive, true, 1},
        OracleConfig{InclusionPolicy::Exclusive, true, 4},
        OracleConfig{InclusionPolicy::Exclusive, true, 33}),
    [](const ::testing::TestParamInfo<OracleConfig> &info) {
        return configName(info.param);
    });

/** One core, exclusive: no line is ever in both its L2 and the L3. */
TEST(ExclusiveHierarchy, SingleCoreNeverHoldsALineTwice)
{
    const LevelConfig l1{2 * 2 * 64, 2, 4};
    const LevelConfig l2{4 * 4 * 64, 4, 12};
    const LevelConfig l3{12 * 4 * 64, 4, 38};
    CacheHierarchy hier(1, l1, l2, l3, InclusionPolicy::Exclusive, 200,
                        PrefetchConfig{true, 2});
    Rng rng(21);
    for (int step = 0; step < 20'000; ++step) {
        hier.access(0, rng.nextBelow(160) * 64);
        if (step % 97 != 0)
            continue;
        for (uint64_t addr : hier.l2(0).residentLines())
            ASSERT_FALSE(hier.l3().contains(addr)) << "step " << step;
    }
}

} // namespace
} // namespace recperf
