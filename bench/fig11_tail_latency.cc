/**
 * @file
 * Figure 11, reconstructed from the request log: where the latency
 * tail comes from.
 *
 * The paper's Fig 11 shows the latency distribution of a production
 * operator blowing up under co-location — the tail is not noise, it
 * has causes. This bench derives that decomposition from the
 * per-request causal records (obs/request_log.hh) alone: each scenario
 * runs a serving loop with a request logger, then attributes
 * the p99-p50 gap to the mechanism that charged it (queue wait,
 * shard stragglers, hedges, retries, scrub tax, ...).
 *
 * Scenario grid:
 *  - serve_overload: open-loop serving at 1.4x saturation — the tail
 *    is queueing delay;
 *  - shard_clean: sharded fan-out with no fault injection — the tail
 *    is shard imbalance + aggregation;
 *  - shard_straggler: 30% straggling shards — the tail must be
 *    dominated by `shard_straggler` (asserted);
 *  - shard_hedged: the same stragglers with two copies per shard and
 *    hedged requests — hedges to the second copy buy back tail at a
 *    visible `hedge` blame share.
 *
 * Invariants asserted in every scenario (the CI observability leg
 * runs this binary):
 *  - blame fractions sum to 1 within 1e-6;
 *  - every record's phase durations tile its latency (rel 1e-6);
 *  - under injected stragglers, `shard_straggler` is the top cause.
 *
 * Emits JSON for scripts/run_bench.sh (BENCH_tail_attribution.json);
 * all measurements ride the deterministic virtual clocks, so a fresh
 * run reproduces the committed baseline exactly.
 *
 *   fig11_tail_latency [--quick] [--seed 3] [--out file.json]
 */

#include <cmath>
#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "core/args.hh"
#include "core/logging.hh"
#include "core/stats.hh"
#include "machine/machine_spec.hh"
#include "model/zoo.hh"
#include "obs/request_log.hh"
#include "resilience/fault_injector.hh"
#include "serving/distributed.hh"
#include "serving/server.hh"

using namespace recperf;

namespace {

constexpr double kBlameSumTol = 1e-6;

struct Scenario
{
    std::string name;
    uint64_t offered = 0;
    std::vector<obs::RequestRecord> records;
    obs::TailAttribution tail;
};

/** Pull the log + attribution of the run just finished. */
Scenario
capture(const std::string &name, uint64_t offered,
        const obs::RequestLogger &rlog)
{
    Scenario s;
    s.name = name;
    s.offered = offered;
    s.records = rlog.records();
    s.tail = rlog.attribution();
    return s;
}

Scenario
runServeOverload(uint64_t seed, uint64_t items)
{
    ServerOptions sopts;
    sopts.numWorkers = 2;
    sopts.maxBatch = 16;
    sopts.slaSeconds = 1.5e-3;
    sopts.seed = seed;
    TimerOptions topts;
    topts.batch = sopts.maxBatch;
    Server probe(broadwell(), rmc1Small(), topts, sopts);
    double saturation =
        probe.runClosedLoop(40).totalThroughput();
    Server server(broadwell(), rmc1Small(), topts, sopts);
    obs::RequestLogger rlog;
    server.runOpenLoop(1.4 * saturation, items, &rlog);
    return capture("serve_overload", items, rlog);
}

Scenario
runShard(const std::string &name, uint64_t seed, int iters,
         double straggler_prob, bool hedge)
{
    TimerOptions topts;
    topts.batch = 16;
    ShardedInference sim(broadwell(), rmc1Small(), 4, NetworkConfig{},
                         topts);
    RunOptions ropts;
    ropts.warmupIters = 10;
    ropts.measureIters = iters;
    ropts.faults.stragglerProb = straggler_prob;
    ropts.faults.seed = seed;
    ropts.hedge.enabled = hedge;
    // A hedge goes to the router's second copy of the shard.
    ropts.replicas.replicas = hedge ? 2 : 1;
    obs::RequestLogger rlog;
    ropts.requestLog = &rlog;
    sim.run(ropts);
    return capture(name, static_cast<uint64_t>(iters), rlog);
}

/** Largest-blame cause index of a scenario. */
size_t
topCause(const obs::TailAttribution &tail)
{
    size_t top = 0;
    for (size_t c = 1; c < obs::kNumRequestPhases; ++c) {
        if (tail.blame[c] > tail.blame[top])
            top = c;
    }
    return top;
}

void
checkInvariants(const Scenario &s)
{
    double sum = 0.0;
    for (double b : s.tail.blame)
        sum += b;
    RP_ASSERT(std::fabs(sum - 1.0) <= kBlameSumTol,
              "'%s': blame fractions sum to %.9f, not 1 +/- %g",
              s.name.c_str(), sum, kBlameSumTol);
    for (const obs::RequestRecord &rec : s.records) {
        double err = std::fabs(rec.phaseSum() - rec.latency);
        RP_ASSERT(err <= 1e-9 + 1e-6 * rec.latency,
                  "'%s' record %llu: phases sum to %.12g but latency "
                  "is %.12g", s.name.c_str(),
                  static_cast<unsigned long long>(rec.id),
                  rec.phaseSum(), rec.latency);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("fig11_tail_latency",
                   "tail-latency attribution from per-request records");
    args.addFlag("quick", "CI-sized run (2000 items / 300 iters)");
    args.addOption("seed", "3", "arrival/jitter/fault seed");
    args.addOption("out", "", "write JSON here (default: stdout)");
    std::string error;
    if (!args.parse({argv + 1, argv + argc}, &error)) {
        std::fprintf(stderr, "error: %s\n%s", error.c_str(),
                     args.helpText().c_str());
        return 2;
    }
    bool quick = args.flag("quick");
    auto seed = static_cast<uint64_t>(args.optionInt("seed"));
    uint64_t items = quick ? 2000 : 6000;
    int iters = quick ? 300 : 1000;

    bench::banner(strprintf(
        "Figure 11 (reconstructed): tail-latency attribution from the "
        "request log\n(RMC1 on Broadwell, seed %llu)",
        static_cast<unsigned long long>(seed)));

    std::vector<Scenario> grid;
    grid.push_back(runServeOverload(seed, items));
    grid.push_back(runShard("shard_clean", seed, iters, 0.0, false));
    grid.push_back(runShard("shard_straggler", seed, iters, 0.3, false));
    grid.push_back(runShard("shard_hedged", seed, iters, 0.3, true));

    bench::section("p99 - p50 blame decomposition");
    std::printf("  %-16s %6s %9s %9s %9s  %s\n", "scenario", "served",
                "p50(ms)", "p99(ms)", "gap(ms)", "top cause");
    for (const Scenario &s : grid) {
        size_t top = topCause(s.tail);
        std::printf("  %-16s %6llu %9.3f %9.3f %9.3f  %s %.0f%%\n",
                    s.name.c_str(),
                    static_cast<unsigned long long>(s.tail.served),
                    s.tail.p50 * 1e3, s.tail.p99 * 1e3,
                    s.tail.gap * 1e3,
                    obs::requestPhaseName(
                        static_cast<obs::RequestPhase>(top)),
                    s.tail.blame[top] * 100.0);
    }

    bench::section("invariants");
    for (const Scenario &s : grid)
        checkInvariants(s);
    std::printf("  [ok] blame fractions sum to 1 +/- %g in every "
                "scenario\n", kBlameSumTol);
    std::printf("  [ok] every record's phases tile its latency\n");

    const Scenario &overload = grid[0];
    RP_ASSERT(topCause(overload.tail) ==
                  static_cast<size_t>(obs::RequestPhase::Queue),
              "serve_overload: expected queueing to dominate the tail, "
              "got '%s'",
              obs::requestPhaseName(static_cast<obs::RequestPhase>(
                  topCause(overload.tail))));
    const Scenario &straggler = grid[2];
    size_t straggler_top = topCause(straggler.tail);
    RP_ASSERT(straggler_top ==
                  static_cast<size_t>(obs::RequestPhase::ShardStraggler),
              "shard_straggler: expected shard stragglers to dominate "
              "the tail, got '%s'",
              obs::requestPhaseName(
                  static_cast<obs::RequestPhase>(straggler_top)));
    std::printf("  [ok] queue dominates under overload; "
                "shard_straggler dominates under stragglers "
                "(%.0f%% of the gap)\n",
                straggler.tail.blame[straggler_top] * 100.0);

    bench::JsonWriter json("fig11_tail_latency");
    json.machine().add("machine", "broadwell");
    json.config()
        .add("model", "rmc1")
        .add("seed", seed)
        .add("quick", quick)
        .add("serve_items", items)
        .add("shard_iters", static_cast<int64_t>(iters));
    for (const Scenario &s : grid) {
        bench::JsonObject &row = json.newResult();
        row.add("scenario", s.name)
            .add("offered", s.offered)
            .add("served", s.tail.served)
            .add("p50_ms", s.tail.p50 * 1e3)
            .add("p99_ms", s.tail.p99 * 1e3)
            .add("gap_ms", s.tail.gap * 1e3);
        for (size_t c = 0; c < obs::kNumRequestPhases; ++c) {
            row.add(std::string("blame_") +
                        obs::requestPhaseName(
                            static_cast<obs::RequestPhase>(c)),
                    s.tail.blame[c]);
        }
    }
    return json.writeOrPrint(args.option("out")) ? 0 : 1;
}
