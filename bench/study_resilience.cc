/**
 * @file
 * Study: serving resilience under injected faults.
 *
 * The paper's tail-latency section (§VI-A) shows that p99 behaviour —
 * not mean latency — decides how much of a cluster's throughput is
 * usable under an SLA, and that co-location noise and node misbehaviour
 * dominate that tail. This study quantifies the two mitigation layers
 * of the resilience subsystem:
 *
 *  1. Sharded inference at two replicas per shard: a (failure rate x
 *     hedging policy) grid. Each cell reports p99 latency, goodput,
 *     and availability; a hedge goes to the shard's second copy, so
 *     hedged requests should cut p99 and raise availability at the
 *     highest failure rate, at a bounded duplicate-work cost.
 *  2. Single-node serving: arrival-rate sweep with the SLA-aware
 *     admission controller off/on. Shedding items whose queue wait
 *     already blew the budget keeps the SLA-met fraction of served
 *     items high through saturation.
 *
 * Everything is reproducible from the fixed seeds below.
 */

#include <cstdint>
#include <vector>

#include "bench/bench_common.hh"
#include "core/logging.hh"
#include "machine/machine_spec.hh"
#include "model/zoo.hh"
#include "resilience/fault_injector.hh"
#include "resilience/policies.hh"
#include "serving/distributed.hh"
#include "serving/server.hh"

using namespace recperf;

namespace {

constexpr uint32_t kNodes = 4;
constexpr uint32_t kReplicas = 2;
constexpr int kWarmup = 20;
constexpr int kMeasure = 120;

FaultOptions
faultsAt(double mtbf_seconds)
{
    FaultOptions f;
    f.stragglerProb = 0.10;
    f.stragglerAlpha = 1.5;
    f.stragglerMin = 3.0;
    f.shardMtbfSeconds = mtbf_seconds;
    f.shardMttrSeconds = 0.005;
    f.seed = 2020;
    return f;
}

RunResult
runCell(double mtbf_seconds, const HedgePolicy &hedge)
{
    TimerOptions opts;
    opts.batch = 16;
    ShardedInference sim(broadwell(), rmc2Small(), kNodes,
                         NetworkConfig{}, opts);
    RetryPolicy retry;
    retry.timeoutSeconds = 0.005;
    retry.maxRetries = 2;
    RunOptions options;
    options.warmupIters = kWarmup;
    options.measureIters = kMeasure;
    options.faults = faultsAt(mtbf_seconds);
    options.retry = retry;
    options.hedge = hedge;
    options.replicas.replicas = kReplicas;
    return sim.run(options);
}

void
shardedGrid()
{
    bench::section(strprintf("sharded RMC2 on %u x %u Broadwell: failure "
                             "rate x hedging -> p99 / goodput", kNodes,
                             kReplicas));

    struct HedgeCol
    {
        const char *name;
        HedgePolicy policy;
    };
    std::vector<HedgeCol> cols = {
        {"no hedge", {}},
        {"hedge @p95", {true, 0.0}},
        {"hedge @0.2ms", {true, 0.2e-3}},
    };
    std::vector<std::pair<const char *, double>> rows = {
        {"no failures", 0.0},
        {"MTBF 100 ms", 0.100},
        {"MTBF  20 ms", 0.020},
    };

    std::printf("  %-12s", "failure rate");
    for (const HedgeCol &c : cols)
        std::printf(" | %-26s", c.name);
    std::printf("\n");

    RunResult nohedge;
    RunResult hedged;
    for (const auto &[row_name, mtbf] : rows) {
        std::printf("  %-12s", row_name);
        for (size_t c = 0; c < cols.size(); ++c) {
            RunResult r = runCell(mtbf, cols[c].policy);
            std::string cell = strprintf(
                "p99 %6.3f ms %5.0f inf/s %s", r.latency.p(99) * 1e3,
                r.goodput(),
                r.availability() >= 1.0
                    ? "100%"
                    : strprintf("%3.0f%%", r.availability() * 100)
                          .c_str());
            std::printf(" | %-26s", cell.c_str());
            if (mtbf == 0.020 && c == 0)
                nohedge = r;
            if (mtbf == 0.020 && c == 1)
                hedged = r;
        }
        std::printf("\n");
    }

    double p99_nohedge = nohedge.latency.p(99);
    double p99_hedge = hedged.latency.p(99);
    RP_ASSERT(p99_hedge < p99_nohedge,
              "hedging must cut p99 under injected faults "
              "(%.3f >= %.3f ms)", p99_hedge * 1e3, p99_nohedge * 1e3);
    RP_ASSERT(hedged.availability() > nohedge.availability(),
              "hedging must rescue requests to down replicas "
              "(availability %.1f%% <= %.1f%%)",
              hedged.availability() * 100, nohedge.availability() * 100);
    std::printf("\n  at the highest failure rate, hedging cuts p99 by "
                "%.0f%% (%.3f -> %.3f ms)\n  and lifts availability "
                "from %.0f%% to %.0f%%\n",
                (1.0 - p99_hedge / p99_nohedge) * 100,
                p99_nohedge * 1e3, p99_hedge * 1e3,
                nohedge.availability() * 100, hedged.availability() * 100);
}

void
admissionSweep()
{
    bench::section("open-loop serving: admission control through "
                   "saturation (RMC2, 2 workers, SLA 10 ms)");

    std::printf("  %-14s | %-34s | %-34s\n", "offered", "admission off",
                "admission on (wait budget 50% SLA)");
    for (double rate : {5'000.0, 15'000.0, 40'000.0}) {
        std::printf("  %8.0f it/s", rate);
        double sla_frac_on = 0.0;
        for (bool admission : {false, true}) {
            ServerOptions o;
            o.numWorkers = 2;
            o.maxBatch = 8;
            o.slaSeconds = 0.010;
            o.admission.enabled = admission;
            o.admission.maxWaitFraction = 0.5;
            Server server(broadwell(), rmc2Small(), TimerOptions{}, o);
            ServingStats s = server.runOpenLoop(rate, 3'000);
            std::string cell = strprintf(
                "SLA %5.1f%%  good %5.0f it/s  shed %4llu",
                s.slaFraction() * 100, s.goodThroughput(),
                static_cast<unsigned long long>(s.shedItems));
            std::printf(" | %-34s", cell.c_str());
            if (admission)
                sla_frac_on = s.slaFraction();
        }
        std::printf("\n");
        RP_ASSERT(sla_frac_on > 0.8,
                  "admission control must keep served items under the "
                  "SLA (got %.1f%%)", sla_frac_on * 100);
    }
}

} // namespace

int
main()
{
    bench::banner("Study: resilient serving under injected faults "
                  "(stragglers, shard failures, overload)");

    shardedGrid();
    admissionSweep();

    bench::section("takeaways");
    std::printf("  - hedged requests trade bounded duplicate work for a "
                "p99 cut, and rescue\n    requests to a replica in its "
                "MTTR window when the shard's other copy is up;\n");
    std::printf("  - without hedging, transient shard failures burn the "
                "retry budget and can\n    surface as failed "
                "inferences, not just latency;\n");
    std::printf("  - shedding items whose queue wait already exceeds "
                "the SLA budget keeps the\n    served fraction's SLA "
                "compliance high past saturation -- goodput degrades\n"
                "    gracefully instead of collapsing (\"latency-bounded "
                "throughput\", Section III).\n");
    return 0;
}
