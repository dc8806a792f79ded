/**
 * @file
 * Google-benchmark microbenchmarks for the cache simulator — the inner
 * loop of every timing experiment, so its host-side throughput bounds
 * how large a sweep the harness can run.
 */

#include <benchmark/benchmark.h>

#include "core/rng.hh"
#include "machine/machine_spec.hh"
#include "simcache/hierarchy.hh"
#include "trace/id_generator.hh"

using namespace recperf;

namespace {

void
BM_CacheAccessHit(benchmark::State &state)
{
    Cache cache("bench", 1024 * 1024, 16);
    for (uint64_t line = 0; line < 1024; ++line)
        cache.fill(line * 64);
    uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access((i++ % 1024) * 64));
    }
    state.counters["access/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CacheAccessHit);

void
BM_CacheAccessMissFill(benchmark::State &state)
{
    Cache cache("bench", 256 * 1024, 8);
    Rng rng(1);
    for (auto _ : state) {
        uint64_t addr = rng.nextBelow(1 << 22) * 64;
        if (!cache.access(addr))
            cache.fill(addr);
    }
    state.counters["access/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CacheAccessMissFill);

void
BM_HierarchyRandomAccess(benchmark::State &state)
{
    auto tenants = static_cast<uint32_t>(state.range(0));
    auto hier = broadwell().makeHierarchy(tenants);
    Rng rng(2);
    for (auto _ : state) {
        uint32_t core = static_cast<uint32_t>(rng.nextBelow(tenants));
        uint64_t addr = rng.nextBelow(1 << 24) * 64;
        benchmark::DoNotOptimize(hier->access(core, addr));
    }
    state.counters["access/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_HierarchyRandomAccess)->Arg(1)->Arg(8);

void
BM_HierarchyInclusiveThrash(benchmark::State &state)
{
    // Four cores stream random lines over 4x the 35 MiB Broadwell LLC:
    // nearly every access misses the LLC and evicts a line, so this
    // times the inclusive back-invalidation path per access.
    constexpr uint32_t kCores = 4;
    auto hier = broadwell().makeHierarchy(kCores);
    const uint64_t lines = 4 * hier->l3().sizeBytes() / 64;
    Rng rng(4);
    uint32_t core = 0;
    for (auto _ : state) {
        uint64_t addr = rng.nextBelow(lines) * 64;
        benchmark::DoNotOptimize(hier->access(core, addr));
        core = (core + 1) % kCores;
    }
    state.counters["access/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
    state.counters["llc_miss_rate"] = hier->l3().stats().missRate();
}
BENCHMARK(BM_HierarchyInclusiveThrash);

void
BM_HierarchyZipfAccess(benchmark::State &state)
{
    auto hier = skylake().makeHierarchy(1);
    ZipfGen gen(2'000'000, 1.05, Rng(3));
    for (auto _ : state) {
        uint64_t addr = static_cast<uint64_t>(gen.next()) * 128;
        benchmark::DoNotOptimize(hier->access(0, addr));
    }
    state.counters["access/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_HierarchyZipfAccess);

} // namespace

BENCHMARK_MAIN();
