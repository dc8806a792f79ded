/**
 * @file
 * Property test: the set-associative Cache against an executable
 * reference model (per-set LRU lists) under randomized operation
 * sequences. Any divergence in hit/miss outcomes, evicted victims, or
 * resident contents is a simulator bug.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>

#include "core/rng.hh"
#include "reference_cache.hh"
#include "simcache/cache.hh"

namespace recperf {
namespace {

struct FuzzConfig
{
    uint64_t seed;
    uint64_t size_bytes;
    uint32_t assoc;
    uint64_t addr_space_lines;
};

void
fuzzAgainstReference(const FuzzConfig &cfg)
{
    Cache cache("fuzz", cfg.size_bytes, cfg.assoc);
    ReferenceCache ref(cfg.size_bytes, cfg.assoc);
    Rng rng(cfg.seed);

    for (int step = 0; step < 30'000; ++step) {
        uint64_t addr = rng.nextBelow(cfg.addr_space_lines) * 64 +
            rng.nextBelow(64); // arbitrary byte within the line
        switch (rng.nextBelow(4)) {
          case 0:
          case 1: { // access (most common)
            bool got = cache.access(addr);
            bool want = ref.access(addr);
            ASSERT_EQ(got, want) << "access mismatch at step " << step;
            break;
          }
          case 2: { // fill
            auto got = cache.fill(addr);
            auto want = ref.fill(addr);
            ASSERT_EQ(got.has_value(), want.has_value())
                << "fill eviction mismatch at step " << step;
            if (got) {
                ASSERT_EQ(*got, *want) << "victim mismatch at " << step;
            }
            break;
          }
          default: { // invalidate
            ASSERT_EQ(cache.invalidate(addr), ref.invalidate(addr))
                << "invalidate mismatch at step " << step;
            break;
          }
        }
        if (step % 4096 == 0) {
            ASSERT_EQ(cache.occupancy(), ref.occupancy());
            ASSERT_EQ(cache.contains(addr), ref.contains(addr));
        }
    }

    // Final state: identical resident sets.
    auto lines = cache.residentLines();
    ASSERT_EQ(lines.size(), ref.occupancy());
    for (uint64_t addr : lines)
        ASSERT_TRUE(ref.contains(addr));
}

class CacheFuzz : public ::testing::TestWithParam<FuzzConfig>
{
};

TEST_P(CacheFuzz, AgreesWithReference)
{
    fuzzAgainstReference(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheFuzz,
    ::testing::Values(
        FuzzConfig{1, 4096, 1, 256},        // direct-mapped, tight space
        FuzzConfig{2, 4096, 4, 512},
        FuzzConfig{3, 32 * 1024, 8, 4096},
        FuzzConfig{4, 256 * 1024, 16, 8192},
        FuzzConfig{5, 4096, 64, 128},       // fully-associative set
        FuzzConfig{6, 64 * 1024, 2, 100'000}));

/** A geometry whose set count is not a power of two, with a name. */
struct OddGeometry
{
    FuzzConfig cfg;
    const char *name;
};

void
PrintTo(const OddGeometry &g, std::ostream *os)
{
    *os << g.name;
}

class CacheFuzzOddSets : public ::testing::TestWithParam<OddGeometry>
{
};

TEST_P(CacheFuzzOddSets, AgreesWithReference)
{
    fuzzAgainstReference(GetParam().cfg);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheFuzzOddSets,
    ::testing::Values(
        OddGeometry{{7, 3 * 4096, 4, 2048}, "Sets48"},
        OddGeometry{{8, 20 * 64 * 7, 20, 600}, "Sets7Ways20"},
        OddGeometry{{9, 5 * 64 * 4, 4, uint64_t{1} << 52}, "Sets5Addr58Bit"}),
    [](const ::testing::TestParamInfo<OddGeometry> &info) {
        return std::string(info.param.name);
    });

/**
 * The per-set LRU stamps are 16 bits wide: a set that hands out its
 * last stamp renumbers its lines in LRU order. Driving one set far past
 * that point, with invalidations leaving holes, must still agree with
 * the reference on every hit, victim and resident line.
 */
TEST(CacheLru, StampRenumberingKeepsLruOrder)
{
    Cache cache("lru", 8 * 64, 8); // a single 8-way set
    ReferenceCache ref(8 * 64, 8);
    Rng rng(11);
    for (int step = 0; step < 400'000; ++step) {
        uint64_t addr = rng.nextBelow(12) * 64;
        uint64_t op = rng.nextBelow(8);
        if (op < 5) {
            ASSERT_EQ(cache.access(addr), ref.access(addr)) << step;
        } else if (op < 7) {
            ASSERT_EQ(cache.fill(addr), ref.fill(addr)) << step;
        } else {
            ASSERT_EQ(cache.invalidate(addr), ref.invalidate(addr)) << step;
        }
    }
    auto lines = cache.residentLines();
    std::sort(lines.begin(), lines.end());
    EXPECT_EQ(lines, ref.residentLines());
}

} // namespace
} // namespace recperf
