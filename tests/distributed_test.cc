/**
 * @file
 * Tests for table-wise sharded (distributed) inference.
 */

#include <gtest/gtest.h>

#include <bit>

#include "core/logging.hh"
#include "core/thread_pool.hh"
#include "machine/machine_spec.hh"
#include "model/zoo.hh"
#include "obs/hw_counters.hh"
#include "serving/distributed.hh"

namespace recperf {
namespace {

RunResult
shard(uint32_t nodes, int64_t batch = 16)
{
    TimerOptions opts;
    opts.batch = batch;
    ShardedInference sim(broadwell(), rmc2Small(), nodes, NetworkConfig{},
                         opts);
    return sim.run(RunOptions{.warmupIters = 8, .measureIters = 6});
}

TEST(Sharded, SingleNodeHasNoNetworkCost)
{
    RunResult r = shard(1);
    EXPECT_EQ(r.networkSeconds, 0.0);
    EXPECT_EQ(r.networkBytes, 0.0);
    EXPECT_GT(r.slowestShardSeconds, 0.0);
    EXPECT_GT(r.aggregatorSeconds, 0.0);
    EXPECT_NEAR(r.totalSeconds,
                r.slowestShardSeconds + r.aggregatorSeconds, 1e-12);
}

TEST(Sharded, RejectsMoreNodesThanTables)
{
    TimerOptions opts;
    EXPECT_THROW(ShardedInference(broadwell(), rmc1Small(), 5,
                                  NetworkConfig{}, opts),
                 PanicError); // RMC1 has 4 tables
    EXPECT_THROW(ShardedInference(broadwell(), rmc2Small(), 0,
                                  NetworkConfig{}, opts),
                 PanicError);
}

TEST(Sharded, ShardingCutsSlsTime)
{
    RunResult one = shard(1);
    RunResult eight = shard(8);
    // Each node holds 4 of 32 tables: the parallel SLS phase shrinks
    // several-fold (also helped by better per-node cache residency).
    EXPECT_LT(eight.slowestShardSeconds,
              0.35 * one.slowestShardSeconds);
}

TEST(Sharded, NetworkCostScalesWithBatchAndTables)
{
    RunResult small = shard(4, 4);
    RunResult big = shard(4, 64);
    EXPECT_NEAR(big.networkBytes / small.networkBytes, 16.0, 1e-9);
    EXPECT_GT(big.networkSeconds, small.networkSeconds);
}

TEST(Sharded, TotalLatencyImprovesForMemoryBoundModel)
{
    // RMC2 is SLS-dominated, so spreading the gathers wins even after
    // paying the network.
    RunResult one = shard(1);
    RunResult four = shard(4);
    EXPECT_LT(four.totalSeconds, one.totalSeconds);
}

TEST(Sharded, DiminishingReturns)
{
    // The aggregator + network floor limits scale-out.
    RunResult n4 = shard(4);
    RunResult n16 = shard(16);
    double gain_4_to_16 = n4.totalSeconds / n16.totalSeconds;
    double gain_1_to_4 = shard(1).totalSeconds / n4.totalSeconds;
    EXPECT_LT(gain_4_to_16, gain_1_to_4);
}

TEST(Sharded, NumNodesReported)
{
    TimerOptions opts;
    opts.batch = 4;
    ShardedInference sim(skylake(), rmc2Small(), 7, NetworkConfig{}, opts);
    EXPECT_EQ(sim.numNodes(), 7u);
    RunResult r = sim.run(RunOptions{.warmupIters = 3, .measureIters = 3});
    EXPECT_GT(r.totalSeconds, 0.0);
}

/** Bitwise equality, so -0.0 vs 0.0 or a last-bit drift fails. */
#define EXPECT_BITS_EQ(a, b) \
    EXPECT_EQ(std::bit_cast<uint64_t>(static_cast<double>(a)), \
              std::bit_cast<uint64_t>(static_cast<double>(b))) \
        << #a << " = " << (a) << " vs " << (b)

/** Restore the pool size after a test that changes it. */
class ScopedThreads
{
  public:
    explicit ScopedThreads(int threads) : saved_(globalThreadCount())
    {
        setGlobalThreadCount(threads);
    }
    ~ScopedThreads() { setGlobalThreadCount(saved_); }

  private:
    int saved_;
};

struct FanoutRun
{
    RunResult result;
    obs::HwTotals totals;
};

/**
 * The perfbench sim-shard-rmc1 shape (RMC1, 4 nodes x 2 replicas, p2c,
 * hedging, 5% stragglers) at @p threads pool threads, telemetry on.
 */
FanoutRun
perfbenchShapeAt(int threads)
{
    ScopedThreads pool(threads);
    obs::HwTelemetry &telem = obs::HwTelemetry::global();
    telem.reset();
    telem.setEnabled(true);
    TimerOptions topts;
    topts.batch = 16;
    topts.seed = 21;
    ShardedInference sim(broadwell(), rmc1Small(), 4, NetworkConfig{},
                         topts);
    RunOptions ro;
    ro.warmupIters = 0;
    ro.measureIters = 60;
    ro.faults.stragglerProb = 0.05;
    ro.faults.seed = 101;
    ro.hedge.enabled = true;
    ro.replicas.replicas = 2;
    ro.replicas.router = RouterPolicy::PowerOfTwo;
    ro.replicas.seed = 201;
    FanoutRun run{sim.run(ro), {}};
    run.totals = telem.totals();
    telem.setEnabled(false);
    telem.reset();
    return run;
}

void
expectSameCache(const CacheStats &a, const CacheStats &b)
{
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.backInvalidations, b.backInvalidations);
}

TEST(ShardedFanout, BitIdenticalAcrossThreadCounts)
{
    // Every inference runs its shard timers and the aggregator at once
    // on the pool; at one thread that is the serial loop, the oracle.
    FanoutRun one = perfbenchShapeAt(1);
    for (int threads : {2, 4}) {
        SCOPED_TRACE(threads);
        FanoutRun run = perfbenchShapeAt(threads);
        const RunResult &a = one.result;
        const RunResult &b = run.result;
        ASSERT_EQ(a.latency.count(), b.latency.count());
        for (size_t i = 0; i < a.latency.count(); ++i)
            EXPECT_BITS_EQ(a.latency.samples()[i], b.latency.samples()[i]);
        for (auto field :
             {&RunResult::completed, &RunResult::failed,
              &RunResult::deadlineExpired, &RunResult::deadlineFastFails,
              &RunResult::hedgesIssued, &RunResult::hedgeWins,
              &RunResult::retries, &RunResult::timeouts,
              &RunResult::shardDownEncounters, &RunResult::failovers,
              &RunResult::breakerRejects, &RunResult::breakerOpens,
              &RunResult::breakerCloses, &RunResult::probesAdmitted,
              &RunResult::replicaSkips})
            EXPECT_EQ(a.*field, b.*field);
        for (auto field :
             {&RunResult::hedgeExtraSeconds, &RunResult::hedgeExtraBytes,
              &RunResult::wastedSeconds, &RunResult::duration,
              &RunResult::warmupPenaltySeconds,
              &RunResult::warmupFactorUsed, &RunResult::totalSeconds,
              &RunResult::slowestShardSeconds, &RunResult::networkSeconds,
              &RunResult::aggregatorSeconds, &RunResult::networkBytes})
            EXPECT_BITS_EQ(a.*field, b.*field);
        EXPECT_EQ(a.sdc.active, b.sdc.active);

        const obs::HwTotals &x = one.totals;
        const obs::HwTotals &y = run.totals;
        for (auto field :
             {&obs::HwTotals::seconds, &obs::HwTotals::flops,
              &obs::HwTotals::bytesRead, &obs::HwTotals::bytesWritten,
              &obs::HwTotals::instructions,
              &obs::HwTotals::offloadSeconds})
            EXPECT_BITS_EQ(x.*field, y.*field);
        for (auto field :
             {&obs::HwTotals::l1Lines, &obs::HwTotals::l2Lines,
              &obs::HwTotals::l3Lines, &obs::HwTotals::dramLines,
              &obs::HwTotals::transferBytes})
            EXPECT_EQ(x.*field, y.*field);
        expectSameCache(x.cache.l1, y.cache.l1);
        expectSameCache(x.cache.l2, y.cache.l2);
        expectSameCache(x.cache.l3, y.cache.l3);
    }
    // The run did real work: telemetry saw every timer's gathers.
    EXPECT_GT(one.result.completed, 0u);
    EXPECT_GT(one.result.hedgesIssued, 0u);
    EXPECT_GT(one.totals.cache.l1.accesses, 0u);
}

} // namespace
} // namespace recperf
