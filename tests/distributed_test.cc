/**
 * @file
 * Tests for table-wise sharded (distributed) inference.
 */

#include <gtest/gtest.h>

#include "core/logging.hh"
#include "machine/machine_spec.hh"
#include "model/zoo.hh"
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

} // namespace
} // namespace recperf
