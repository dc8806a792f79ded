/**
 * @file
 * Ablation: table-wise sharded (distributed) inference.
 *
 * Section VII suggests studying "running recommendation models across
 * many nodes". This sweeps the shard count for the embedding-dominated
 * RMC2 and shows the scale-out win on the parallel SLS phase against
 * the network/aggregator floor.
 */

#include "bench/bench_common.hh"
#include "machine/machine_spec.hh"
#include "model/zoo.hh"
#include "serving/distributed.hh"

using namespace recperf;

int
main()
{
    bench::banner("Ablation: sharded inference (RMC2, batch 16, "
                  "Broadwell nodes)");

    TimerOptions opts;
    opts.batch = 16;
    NetworkConfig net;

    std::printf("  %5s %12s %12s %12s %12s\n", "nodes", "total",
                "shard SLS", "network", "aggregator");
    double baseline = 0.0;
    for (uint32_t nodes : {1u, 2u, 4u, 8u, 16u, 32u}) {
        ShardedInference sim(broadwell(), rmc2Small(), nodes, net, opts);
        RunResult r = sim.run(RunOptions{.warmupIters = 8, .measureIters = 6});
        if (nodes == 1)
            baseline = r.totalSeconds;
        std::printf("  %5u %9.3f ms %9.3f ms %9.3f ms %9.3f ms   "
                    "(%.2fx)\n", nodes, r.totalSeconds * 1e3,
                    r.slowestShardSeconds * 1e3, r.networkSeconds * 1e3,
                    r.aggregatorSeconds * 1e3,
                    baseline / r.totalSeconds);
    }

    bench::section("network sensitivity (8 nodes)");
    for (double bw : {1.0, 3.0, 12.5}) {
        NetworkConfig slow = net;
        slow.bandwidthGBps = bw;
        ShardedInference sim(broadwell(), rmc2Small(), 8, slow, opts);
        RunResult r = sim.run(RunOptions{.warmupIters = 8, .measureIters = 6});
        std::printf("  %5.1f GB/s links: total %.3f ms (network "
                    "%.3f ms)\n", bw, r.totalSeconds * 1e3,
                    r.networkSeconds * 1e3);
    }
    return 0;
}
