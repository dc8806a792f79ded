/**
 * @file
 * recperf — command-line driver for the RecPerf experiments.
 *
 * Subcommands:
 *   time      time one model on one machine at one batch size
 *   colocate  sweep co-located instances on a socket
 *   serve     open-loop serving simulation with SLA accounting
 *             (optionally with fault injection, admission control,
 *             and degraded-service mode; --healthy-replicas models a
 *             tier that lost replicas and must degrade earlier)
 *   shard     sharded inference under injected faults: every shard
 *             is a set of --replicas copies behind a health-checked
 *             router with per-replica circuit breakers, recovery
 *             warm-up and timeout/retry; --replicas >= 2 adds
 *             failover and hedged requests
 *   trace     report the unique-ID fraction of a trace profile
 *   eval      execute the real tensor model (thread-pool hot path)
 *             and report measured throughput
 *   report    render a run report (latency percentiles, operator
 *             breakdown, cache MPKI, roofline placement, SLO burn)
 *             from saved --metrics-out/--trace-out/--timeseries-out
 *             artifacts
 *   explain   attribute the latency tail from a --request-log-out log
 *   zoo       list the model zoo and machine fleet
 *
 * One table (kFlags) declares every flag. A flag the command does not
 * read, a bad or out-of-range value, and a child flag without its
 * parent exit 2 before dispatch; `recperf <command> --help` lists the
 * flags a command reads. time/serve/shard/eval write Chrome traces,
 * metrics, hardware-model counters and time series on request.
 *
 * Examples:
 *   recperf time --model rmc2 --machine skylake --batch 64
 *   recperf colocate --model rmc2 --machine broadwell --max-tenants 8
 *   recperf serve --model rmc1 --workers 8 --rate 50000 --sla-ms 10
 *   recperf serve --rate 80000 --admission --admit-wait 0.5 \
 *                 --straggler-prob 0.05
 *   recperf shard --model rmc2 --nodes 8 --replicas 2 --hedge --mtbf-ms 50
 *   recperf shard --nodes 4 --replicas 2 --router p2c --hedge \
 *                 --mtbf-ms 10 --mttr-ms 1
 *   recperf trace --zipf 1.05 --repeat 0.65
 *   recperf eval --model rmc2 --batch 64 --threads 8
 */

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <strings.h>

#include "backend/compute_backend.hh"
#include "core/args.hh"
#include "core/logging.hh"
#include "core/rng.hh"
#include "core/thread_pool.hh"
#include "machine/simd.hh"
#include "model/rec_model.hh"
#include "ops/integrity.hh"
#include "ops/kernel_cache.hh"
#include "ops/microkernels.hh"
#include "obs/hw_counters.hh"
#include "obs/metrics.hh"
#include "obs/report.hh"
#include "obs/request_log.hh"
#include "obs/timeseries.hh"
#include "obs/trace.hh"
#include "machine/machine_spec.hh"
#include "model/zoo.hh"
#include "resilience/deadline.hh"
#include "resilience/fault_injector.hh"
#include "resilience/policies.hh"
#include "sched/brownout.hh"
#include "serving/distributed.hh"
#include "serving/server.hh"
#include "timing/colocation.hh"
#include "timing/model_timer.hh"
#include "trace/id_generator.hh"

using namespace recperf;

namespace {

/** The commands; a flag's scope is a mask of their bits. */
constexpr const char *kCommands[] = {"time", "colocate", "serve", "shard",
    "trace", "eval", "report", "explain", "zoo"};
constexpr unsigned kTime = 1u << 0, kColocate = 1u << 1,
                   kServe = 1u << 2, kShard = 1u << 3, kTrace = 1u << 4,
                   kEval = 1u << 5, kReport = 1u << 6, kExplain = 1u << 7,
                   kAll = (1u << std::size(kCommands)) - 1;
constexpr unsigned kServing = kServe | kShard;
constexpr unsigned kTimed = kTime | kColocate | kServing; ///< timing model
constexpr unsigned kModel = kTimed | kEval;               ///< any model
constexpr unsigned kObserved = kTime | kServing | kEval;  ///< obsBegin/End

/** Value kinds. Readers narrow kInt to int/uint32, so it must fit. */
enum Kind { kFlag, kInt, kInt64, kNum, kText, kChoice };

/** One row of the flag table, which registers every flag, generates
 *  the help and drives checkFlags(); Cli enforces the row's scope. */
struct FlagSpec
{
    const char *name;
    Kind kind;
    const char *def;
    unsigned scope; ///< the commands that read the flag
    /** kChoice: "a|b|c" (a parent is active unless it holds the first
     *  choice); numbers: the interval an explicit value must lie in,
     *  e.g. "[0,1)" (defaults such as 0 = off may lie outside). */
    const char *domain;
    const char *help;
    const char *parent = nullptr; ///< no effect unless this is active
    const char *env = nullptr;    ///< consulted when the flag is unset
    /** As a numeric parent: active when its value exceeds this. */
    double activeAbove = 0;
};

/** Every recperf flag; a child given without its active parent is an
 *  error, since it would do nothing. */
constexpr FlagSpec kFlags[] = {
    {"model", kText, "rmc1", kModel, "",
     "model: rmc1|rmc2|rmc3|rmc3-dot|ncf or a full zoo name"},
    {"machine", kChoice, "broadwell", kTimed, "haswell|broadwell|skylake",
     "machine"},
    {"batch", kInt64, "16", kModel, "[1,inf)",
     "batch size / max serving batch"},
    {"iters", kInt, "20", kTime | kShard | kEval, "[1,inf)",
     "measured iterations"},
    {"max-tenants", kInt, "8", kColocate, "[1,inf)",
     "co-location sweep upper bound"},
    {"workers", kInt, "4", kServe, "[1,inf)", "serving workers"},
    {"rate", kNum, "10000", kServe, "(0,inf)", "offered items/s"},
    {"items", kInt64, "20000", kServe | kTrace, "[1,inf)",
     "items to simulate"},
    {"sla-ms", kNum, "10", kServe, "(0,inf)", "SLA in milliseconds"},
    {"zipf", kNum, "1.1", kTime | kTrace, "(0,inf)", "trace popularity skew"},
    {"repeat", kNum, "0.5", kTime | kTrace, "[0,1)",
     "trace re-reference probability"},
    {"rows", kInt64, "2000000", kTrace, "[1,inf)", "embedding rows"},
    {"seed", kInt64, "42", kModel | kTrace, "", "random seed"},
    {"threads", kInt, "0", kEval, "[0,inf)",
     "tensor-op worker threads (0 = RECPERF_THREADS or hardware)"},
    {"backend", kChoice, "cpu", kModel, "cpu|nmp",
     "compute backend (nmp: near-memory SLS)", nullptr, "RECPERF_BACKEND"},
    {"isa", kChoice, "auto", kModel, "auto|scalar|avx2|avx512",
     "kernel ISA tier (pinned tiers are bit-exact)", nullptr, "RECPERF_ISA"},
    {"nmp-ranks", kInt, "8", kModel, "[1,inf)", "PIM-enabled memory ranks",
     "backend"},
    {"nmp-rank-gbps", kNum, "9.6", kModel, "",
     "in-rank gather bandwidth per rank, GB/s", "backend"},
    {"nmp-row-ns", kNum, "50", kModel, "",
     "per-row in-rank access latency, ns", "backend"},
    {"nmp-link-gbps", kNum, "12", kModel, "",
     "host<->PIM link bandwidth, GB/s", "backend"},
    {"nmp-launch-us", kNum, "2", kModel, "",
     "per-offloaded-op launch round trip, us", "backend"},
    {"nmp-placement", kChoice, "auto", kModel, "auto|all|none",
     "which tables offload", "backend"},
    {"nmp-min-table-kb", kInt, "1024", kModel, "[0,inf)",
     "auto placement: smaller tables stay on host", "backend"},
    {"nmp-host-llc-frac", kNum, "0.5", kModel, "",
     "tables fitting this fraction of the LLC share stay on host", "backend"},
    {"dump-kernel-cache", kFlag, "", kEval, "",
     "print the memoized kernel table after eval"},
    {"rows-cap", kInt64, "4096", kEval, "[1,inf)",
     "embedding rows cap for eval's functional model"},
    {"nodes", kInt, "4", kShard, "[1,inf)", "shard nodes"},
    {"straggler-prob", kNum, "0", kServing, "", "straggler probability"},
    {"straggler-alpha", kNum, "1.5", kServing, "", "straggler pareto shape",
     "straggler-prob"},
    {"straggler-min", kNum, "2", kServing, "", "minimum straggler slowdown",
     "straggler-prob"},
    {"mtbf-ms", kNum, "0", kShard, "", "shard mean time between failures"},
    {"mttr-ms", kNum, "10", kShard, "", "shard mean time to repair"},
    {"spike-rate", kNum, "0", kServing, "", "load spikes per second"},
    {"spike-ms", kNum, "5", kServing, "", "load spike duration",
     "spike-rate"},
    {"spike-factor", kNum, "2", kServing, "", "slowdown during a spike",
     "spike-rate"},
    {"fault-seed", kInt64, "2020", kServing | kEval, "",
     "failure-model seed"},
    {"timeout-ms", kNum, "0", kShard, "", "per-shard timeout (0 = none)"},
    {"retries", kInt, "2", kShard, "", "max retries per shard request"},
    {"replicas", kInt, "1", kShard, "[1,inf)",
     "replicas per shard (>= 2 enables failover)", nullptr, nullptr, 1},
    {"hedge", kFlag, "", kShard, "",
     "hedge slow shard requests to the router's second replica",
     "replicas"},
    {"hedge-ms", kNum, "0", kShard, "", "hedge delay (0 = auto p95)",
     "hedge"},
    {"router", kChoice, "primary-first", kShard,
     "primary-first|least-loaded|p2c", "replica router", "replicas"},
    {"breaker-errors", kInt, "3", kShard, "",
     "consecutive errors tripping a replica's breaker", "replicas"},
    {"breaker-open-ms", kNum, "0.5", kShard, "",
     "breaker cooldown before half-open", "replicas"},
    {"breaker-probe", kNum, "0.7", kShard, "",
     "half-open probe admission probability", "replicas"},
    {"breaker-close-probes", kInt, "2", kShard, "",
     "probe successes that re-close a breaker", "replicas"},
    {"warmup-ms", kNum, "2", kShard, "",
     "post-recovery warm-up window (cold caches)", "replicas"},
    {"warmup-factor", kNum, "0", kShard, "",
     "post-recovery slowdown (0 = measured cold/steady)", "replicas"},
    {"chaos-events", kInt, "0", kShard, "[0,inf)",
     "scripted chaos windows over the run", "replicas"},
    {"chaos-ms", kNum, "5", kShard, "", "mean chaos window duration",
     "replicas"},
    {"corrupt-rate", kNum, "0", kShard, "[0,1e6]",
     "memory-corruption events per second (0 = off)"},
    {"corrupt-zipf", kNum, "1.05", kShard, "",
     "corruption row-targeting skew (0 = uniform)", "corrupt-rate"},
    {"corrupt-multi-bit", kNum, "0.2", kShard, "",
     "fraction of corruptions flipping multiple bits", "corrupt-rate"},
    {"corrupt-stuck-row", kNum, "0.1", kShard, "",
     "fraction of corruptions sticking a whole row at 1s", "corrupt-rate"},
    {"corrupt-fc", kNum, "0", kShard, "",
     "fraction of corruptions hitting FC weights", "corrupt-rate"},
    {"scrub-interval-ms", kNum, "0", kShard, "[0.001,1e9]",
     "background checksum scrub full-sweep period (0 = off)"},
    {"integrity-sample", kNum, "0", kShard | kEval, "(0,1]",
     "inline-verified fraction of lookup batches (0 = off)"},
    {"integrity-guards", kFlag, "", kShard, "",
     "NaN/inf/range + checksum output guards at the aggregation boundary"},
    {"integrity-canary-ms", kNum, "0", kShard, "",
     "canary-query period with golden outputs (0 = off)"},
    {"repair-rtt-us", kNum, "200", kShard, "",
     "parameter-store round trip per row re-fetch"},
    {"repair-gbps", kNum, "1", kShard, "",
     "parameter-store transfer bandwidth"},
    {"drain-density", kNum, "0", kShard, "",
     "row-corruption density that drains + rehydrates a replica (0 = off)"},
    {"fault-log-out", kText, "", kShard, "",
     "write every injected fault event as JSONL"},
    {"corrupt-events", kInt64, "0", kEval, "[0,inf)",
     "seeded bit flips injected into eval's real tables", "integrity-sample"},
    {"cluster-replicas", kInt, "1", kServe, "[1,inf)",
     "replicas backing the serving tier"},
    {"healthy-replicas", kInt, "0", kServe, "[0,inf)",
     "healthy replicas in the tier (0 = all)"},
    {"trace-out", kText, "", kObserved, "",
     "write a Chrome trace-event JSON of the run"},
    {"metrics-out", kText, "", kObserved, "",
     "write the metrics registry as JSON and print the summary table"},
    {"counters", kFlag, "", kObserved, "",
     "hardware-model telemetry (FLOPs, bytes, cache stats, rooflines)"},
    {"timeseries-out", kText, "", kObserved, "",
     "write telemetry/SLO-burn samples as JSONL (implies --counters)"},
    {"timeseries-interval-ms", kNum, "10", kObserved, "(0,inf)",
     "virtual-time sampling cadence", "timeseries-out"},
    {"request-log-out", kText, "", kServing, "",
     "write one causal JSON record per request as JSONL"},
    {"exemplars-out", kText, "", kServing, "",
     "write the slowest-k + per-decile exemplar records as JSONL"},
    {"request-log-k", kInt, "4", kServing, "",
     "slowest-k exemplar reservoir size"},
    {"request-log-window-ms", kNum, "0", kServing, "",
     "slowest-k trailing window in virtual ms (0 = whole run)"},
    {"metrics", kText, "", kReport | kExplain, "",
     "metrics JSON artifact to render"},
    {"trace", kText, "", kReport, "", "trace JSON artifact to render"},
    {"timeseries", kText, "", kReport, "",
     "timeseries JSONL artifact to render"},
    {"request-log", kText, "", kExplain, "",
     "request-log JSONL artifact to attribute"},
    {"top", kInt, "4", kExplain, "[1,inf)",
     "slowest exemplar timelines to render"},
    {"admission", kFlag, "", kServe, "",
     "shed items whose wait blows the SLA"},
    {"admit-wait", kNum, "0.5", kServe, "",
     "sheddable wait as SLA fraction", "admission"},
    {"degrade-batch", kInt64, "0", kServe, "[0,inf)",
     "degraded-mode batch cap (0 = off)"},
    {"backlog-factor", kNum, "2", kServe, "",
     "backlog (in max batches) triggering degraded mode", "degrade-batch"},
    {"deadline-ms", kNum, "0", kServing, "",
     "per-item deadline budget (0 = off)"},
    {"brownout", kFlag, "", kServe, "",
     "enable the SLO-driven brownout ladder"},
    {"brownout-enter", kNum, "4", kServe, "",
     "short-window burn rate entering ladder level 1", "brownout"},
    {"brownout-growth", kNum, "2", kServe, "",
     "entry-threshold growth per ladder level", "brownout"},
    {"brownout-exit", kNum, "0.5", kServe, "",
     "de-escalate below this fraction of the entry threshold", "brownout"},
    {"brownout-dwell-ms", kNum, "20", kServe, "",
     "minimum time between ladder transitions", "brownout"},
    {"brownout-truncate", kNum, "0.5", kServe, "",
     "candidate-set fraction kept at level >= 1", "brownout"},
    {"brownout-skip-tables", kNum, "0.5", kServe, "",
     "SLS work fraction skipped at level 2", "brownout"},
    {"low-priority", kNum, "0.2", kServe, "",
     "fraction of items droppable when degraded", "degrade-batch"},
    {"help", kFlag, "", kAll, "", "show the options this command reads"},
};

const FlagSpec &
spec(std::string_view name)
{
    for (const FlagSpec &f : kFlags) {
        if (name == f.name)
            return f;
    }
    RP_PANIC("--%s is not in the flag table", std::string(name).c_str());
}

/** Names of the commands in @p scope, space-separated. */
std::string
commandNames(unsigned scope)
{
    std::string out;
    for (size_t i = 0; i < std::size(kCommands); ++i) {
        if (scope & (1u << i))
            out += (out.empty() ? "" : " ") + std::string(kCommands[i]);
    }
    return out;
}

/**
 * The parsed command line as the running command sees it. Every read
 * asserts that the flag's scope includes the command, so a handler
 * reading a flag its row does not grant panics in the tests instead
 * of silently widening what the command accepts.
 */
class Cli
{
  public:
    Cli(const ArgParser &a, unsigned cmd) : args_(a), command_(cmd) {}

    unsigned command() const { return command_; }
    bool flag(const char *n) const { return args_.flag(read(n)); }
    bool set(const char *n) const { return args_.explicitlySet(read(n)); }
    int64_t i64(const char *n) const { return args_.optionInt(read(n)); }
    double num(const char *n) const { return args_.optionDouble(read(n)); }

    /** The flag's value, else its env var's, else the default. */
    std::string str(const char *name) const
    {
        const char *env = spec(read(name)).env;
        env = env ? std::getenv(env) : nullptr;
        return env && !args_.explicitlySet(name) ? env : args_.option(name);
    }

  private:
    const char *read(const char *name) const
    {
        RP_ASSERT(spec(name).scope & command_, "%s reads --%s outside "
                  "its scope", commandNames(command_).c_str(), name);
        return name;
    }

    const ArgParser &args_;
    unsigned command_;
};

/**
 * What one run owns and hands to the code it drives: the backend spec
 * main parsed, the metrics registry, and the sinks obsBegin creates
 * for the --*-out flags. A sink that exists is on.
 */
struct Run
{
    BackendConfig backend;
    obs::MetricsRegistry metrics;
    std::unique_ptr<obs::TimeSeriesSampler> timeSeries;
    std::unique_ptr<obs::RequestLogger> requestLog;
};

void obsBegin(const Cli &cli, Run &run);
void obsEnd(const Cli &cli, Run &run);

/** The zoo model or alias @p name, if any (main checks --model before
 *  dispatch, so handlers can take value()). */
std::optional<ModelConfig>
findModel(const std::string &name)
{
    const std::pair<const char *, ModelConfig (*)()> aliases[] = {
        {"rmc1", rmc1Small}, {"rmc2", rmc2Small}, {"rmc3", rmc3Small},
        {"rmc3-dot", rmc3Dot}, {"ncf", ncfConfig}};
    for (const ModelConfig &cfg : allZooModels()) {
        if (cfg.name == name)
            return cfg;
    }
    for (const auto &[alias, make] : aliases) {
        if (name == alias)
            return make();
    }
    return std::nullopt;
}

/** --machine, one of the row's choices. */
MachineSpec
machineByName(const std::string &name)
{
    for (const MachineSpec &m : fleetMachines()) {
        if (strcasecmp(m.name.c_str(), name.c_str()) == 0)
            return m;
    }
    RP_PANIC("machine '%s' is not in the fleet", name.c_str());
}

int
cmdTime(const Cli &cli, Run &run)
{
    obsBegin(cli, run);
    ModelConfig cfg = findModel(cli.str("model")).value();
    MachineSpec machine = machineByName(cli.str("machine"));
    TimerOptions opts;
    opts.batch = cli.i64("batch");
    opts.zipfAlpha = cli.num("zipf");
    opts.repeatProb = cli.num("repeat");
    opts.seed = static_cast<uint64_t>(cli.i64("seed"));
    opts.backend = run.backend;

    ModelTimer timer(machine, cfg, opts);
    ModelTiming t = timer.steadyState(
        static_cast<int>(cli.i64("iters")),
        static_cast<int>(cli.i64("iters")));

    std::printf("%s on %s, batch %lld:\n", cfg.name.c_str(),
                machine.name.c_str(),
                static_cast<long long>(opts.batch));
    // Default cpu runs print nothing extra — their output is a
    // byte-equality anchor across the backend refactor.
    if (opts.backend.kind != BackendKind::Cpu) {
        const NmpConfig &nmp = opts.backend.nmp;
        std::printf("  backend:    %10s (%u ranks @ %.1f GB/s, link "
                    "%.1f GB/s, placement %s)\n",
                    timer.backend().name(), nmp.ranks, nmp.rankGBps,
                    nmp.linkGBps, nmpPlacementName(nmp.placement));
        double offload = 0.0;
        uint64_t transfer = 0;
        for (const OpTiming &op : t.ops) {
            offload += op.offloadSeconds;
            transfer += op.transferBytes;
        }
        std::printf("  offload:    %10.3f ms on-engine, %.1f KB over "
                    "the host link\n", offload * 1e3,
                    static_cast<double>(transfer) / 1024.0);
    }
    std::printf("  latency:    %10.3f ms\n", t.totalSeconds() * 1e3);
    std::printf("  throughput: %10.0f items/s (single core)\n",
                static_cast<double>(opts.batch) / t.totalSeconds());
    std::printf("  LLC MPKI:   %10.2f\n", t.llcMpki());
    std::printf("  breakdown:\n");
    for (const auto &[kind, secs] : t.breakdown()) {
        std::printf("    %-11s %8.3f ms (%5.1f%%)\n", opKindName(kind),
                    secs * 1e3, 100.0 * secs / t.totalSeconds());
    }
    obsEnd(cli, run);
    return 0;
}

int
cmdColocate(const Cli &cli, Run &run)
{
    ModelConfig cfg = findModel(cli.str("model")).value();
    MachineSpec machine = machineByName(cli.str("machine"));
    auto max_tenants = static_cast<uint32_t>(cli.i64("max-tenants"));
    TimerOptions opts;
    opts.batch = cli.i64("batch");
    opts.seed = static_cast<uint64_t>(cli.i64("seed"));
    opts.backend = run.backend;

    std::printf("co-locating %s on %s (batch %lld):\n", cfg.name.c_str(),
                machine.name.c_str(),
                static_cast<long long>(opts.batch));
    std::printf("  %3s %12s %16s\n", "N", "latency", "throughput");
    double base = 0.0;
    for (uint32_t n = 1; n <= max_tenants; n *= 2) {
        ColocationSim sim(machine, cfg, opts, n);
        ColocationResult r = sim.run(10, 6);
        if (n == 1)
            base = r.meanLatency();
        std::printf("  %3u %9.3f ms %11.0f inf/s  (%.2fx latency)\n", n,
                    r.meanLatency() * 1e3, r.throughput(),
                    r.meanLatency() / base);
    }
    return 0;
}

/** Memory-corruption channel of the failure model (shard). */
CorruptionOptions
corruptionFromArgs(const Cli &cli)
{
    CorruptionOptions c;
    c.ratePerSec = cli.num("corrupt-rate");
    c.zipfAlpha = cli.num("corrupt-zipf");
    c.multiBitFraction = cli.num("corrupt-multi-bit");
    c.stuckRowFraction = cli.num("corrupt-stuck-row");
    c.fcFraction = cli.num("corrupt-fc");
    return c;
}

/** SDC detection/recovery ladder options (shard). */
SdcOptions
sdcFromArgs(const Cli &cli)
{
    SdcOptions s;
    s.scrubIntervalSeconds = cli.num("scrub-interval-ms") / 1e3;
    s.inlineSampleRate = cli.num("integrity-sample");
    s.outputGuards = cli.flag("integrity-guards");
    s.canaryIntervalSeconds = cli.num("integrity-canary-ms") / 1e3;
    s.repairRttSeconds = cli.num("repair-rtt-us") / 1e6;
    s.repairBandwidthGBps = cli.num("repair-gbps");
    s.drainDensity = cli.num("drain-density");
    return s;
}

/** Straggler and load-spike channels of the failure model (serve). */
FaultOptions
loadFaultsFromArgs(const Cli &cli)
{
    FaultOptions f;
    f.stragglerProb = cli.num("straggler-prob");
    f.stragglerAlpha = cli.num("straggler-alpha");
    f.stragglerMin = cli.num("straggler-min");
    f.spikeRatePerSec = cli.num("spike-rate");
    f.spikeDurationSeconds = cli.num("spike-ms") / 1e3;
    f.spikeFactor = cli.num("spike-factor");
    f.seed = static_cast<uint64_t>(cli.i64("fault-seed"));
    return f;
}

/** The full failure model: adds shard failures and corruption (shard). */
FaultOptions
shardFaultsFromArgs(const Cli &cli)
{
    FaultOptions f = loadFaultsFromArgs(cli);
    f.shardMtbfSeconds = cli.num("mtbf-ms") / 1e3;
    f.shardMttrSeconds = cli.num("mttr-ms") / 1e3;
    f.corruption = corruptionFromArgs(cli);
    return f;
}

/** Retry/hedge policies shared by the shard paths. */
RetryPolicy
retryFromArgs(const Cli &cli)
{
    RetryPolicy retry;
    retry.timeoutSeconds = cli.num("timeout-ms") / 1e3;
    retry.maxRetries = static_cast<int>(cli.i64("retries"));
    return retry;
}

HedgePolicy
hedgeFromArgs(const Cli &cli)
{
    HedgePolicy hedge;
    hedge.enabled = cli.flag("hedge");
    hedge.delaySeconds = cli.num("hedge-ms") / 1e3;
    return hedge;
}

ReplicaOptions
replicasFromArgs(const Cli &cli)
{
    ReplicaOptions r;
    r.replicas = static_cast<uint32_t>(cli.i64("replicas"));
    routerPolicyFromName(cli.str("router"), &r.router); // a table choice
    r.breaker.errorThreshold = static_cast<int>(cli.i64("breaker-errors"));
    r.breaker.openSeconds = cli.num("breaker-open-ms") / 1e3;
    r.breaker.probeAdmitProb = cli.num("breaker-probe");
    r.breaker.closeAfterProbes =
        static_cast<int>(cli.i64("breaker-close-probes"));
    r.warmupSeconds = cli.num("warmup-ms") / 1e3;
    r.warmupFactor = cli.num("warmup-factor");
    r.seed = static_cast<uint64_t>(cli.i64("fault-seed"));
    return r;
}

BrownoutOptions
brownoutFromArgs(const Cli &cli)
{
    BrownoutOptions b;
    b.enabled = cli.flag("brownout");
    b.enterBurn = cli.num("brownout-enter");
    b.escalationGrowth = cli.num("brownout-growth");
    b.exitFraction = cli.num("brownout-exit");
    b.dwellSeconds = cli.num("brownout-dwell-ms") / 1e3;
    b.truncateFraction = cli.num("brownout-truncate");
    b.skipTableFraction = cli.num("brownout-skip-tables");
    return b;
}

AdmissionOptions
admissionFromArgs(const Cli &cli)
{
    AdmissionOptions a;
    a.enabled = cli.flag("admission");
    a.maxWaitFraction = cli.num("admit-wait");
    return a;
}

DegradeOptions
degradeFromArgs(const Cli &cli)
{
    DegradeOptions d;
    d.enabled = cli.i64("degrade-batch") > 0;
    d.degradedMaxBatch = cli.i64("degrade-batch");
    d.backlogFactor = cli.num("backlog-factor");
    d.lowPriorityFraction = cli.num("low-priority");
    return d;
}

/**
 * The checks that span several flags or call a domain validator, for
 * serve and shard; the flag table has checked each value on its own.
 * Returns the first problem as a message (main exits 2).
 */
std::string
validateServingArgs(const Cli &cli)
{
    bool serve = cli.command() == kServe;
    FaultOptions faults =
        serve ? loadFaultsFromArgs(cli) : shardFaultsFromArgs(cli);
    std::vector<std::string> errors = {
        faults.validate(),
        validateDeadlineSeconds(cli.num("deadline-ms") / 1e3),
        obs::validateRequestLogArgs(
            static_cast<int>(cli.i64("request-log-k")),
            cli.num("request-log-window-ms") / 1e3,
            !cli.str("request-log-out").empty() ||
                !cli.str("exemplars-out").empty(),
            cli.set("request-log-k"), cli.set("request-log-window-ms"))};
    if (serve) {
        int64_t cluster = cli.i64("cluster-replicas");
        int64_t healthy = cli.i64("healthy-replicas");
        errors.insert(
            errors.end(),
            {validateAdmissionOptions(admissionFromArgs(cli)),
             validateDegradeOptions(degradeFromArgs(cli)),
             brownoutFromArgs(cli).validate(),
             healthy <= cluster
                 ? ""
                 : strprintf("--healthy-replicas must be in [0, "
                             "--cluster-replicas=%lld] (got %lld; 0 "
                             "means all healthy)",
                             static_cast<long long>(cluster),
                             static_cast<long long>(healthy))});
    } else {
        RetryPolicy retry = retryFromArgs(cli);
        bool down = faults.shardMtbfSeconds > 0.0;
        errors.insert(
            errors.end(),
            {down && faults.shardMttrSeconds <= 0.0
                 ? strprintf("--mttr-ms must be positive when --mtbf-ms "
                             "enables shard failures (got %g)",
                             cli.num("mttr-ms"))
                 : "",
             validateRetryPolicy(retry),
             validateHedgePolicy(hedgeFromArgs(cli), retry),
             // Retries that could never fire are a mistake, but only
             // when the user actually asked for them.
             cli.set("retries") && retry.maxRetries > 0 &&
                     retry.timeoutSeconds <= 0.0 && !down
                 ? "--retries can never trigger with a zero --timeout-ms "
                   "and no shard failures (--mtbf-ms 0); set a timeout, "
                   "enable failures, or use --retries 0"
                 : "",
             replicasFromArgs(cli).validate(),
             cli.num("chaos-ms") <= 0.0 && cli.i64("chaos-events") > 0
                 ? strprintf("--chaos-ms must be positive when chaos "
                             "windows are scripted (got %g)",
                             cli.num("chaos-ms"))
                 : "",
             sdcFromArgs(cli).validate()});
    }
    auto bad = std::find_if(errors.begin(), errors.end(),
                            [](const std::string &e) { return !e.empty(); });
    return bad == errors.end() ? "" : *bad;
}

/**
 * Observability plumbing shared by time/serve/shard/eval: --trace-out
 * enables the tracer for the run, --counters / --timeseries-out turn
 * on the hardware-model telemetry, --timeseries-out and
 * --request-log-out / --exemplars-out give the run its sampler and
 * request logger, and --metrics-out writes the run's registry as JSON
 * (plus a summary table on stdout).
 */
void
obsBegin(const Cli &cli, Run &run)
{
    if (!cli.str("trace-out").empty()) {
        obs::Tracer::global().clear();
        obs::Tracer::global().setEnabled(true);
    }
    bool want_timeseries = !cli.str("timeseries-out").empty();
    if (cli.flag("counters") || want_timeseries) {
        obs::HwTelemetry::global().reset();
        obs::HwTelemetry::global().setEnabled(true);
    }
    if (want_timeseries) {
        obs::TimeSeriesOptions topts;
        topts.intervalSeconds = cli.num("timeseries-interval-ms") / 1e3;
        run.timeSeries = std::make_unique<obs::TimeSeriesSampler>(topts);
    }
    // The request log records the serving lanes only.
    if ((cli.command() & kServing) &&
        (!cli.str("request-log-out").empty() ||
         !cli.str("exemplars-out").empty())) {
        obs::RequestLogOptions ropts;
        ropts.slowestK = static_cast<int>(cli.i64("request-log-k"));
        ropts.windowSeconds = cli.num("request-log-window-ms") / 1e3;
        run.requestLog = std::make_unique<obs::RequestLogger>(ropts);
    }
}

void
obsEnd(const Cli &cli, Run &run)
{
    // Export telemetry into the registry before the snapshot so the
    // metrics file carries the final counter values (check_trace.py
    // cross-checks the trace's counter tracks against them). Kernel
    // counters follow the same rule: trace tracks first (while the
    // tracer is still enabled), then the matching metrics export.
    KernelCache &kcache = KernelCache::global();
    kcache.emitTraceCounters(obs::Tracer::global());
    kcache.exportMetrics(run.metrics);
    obs::HwTelemetry &telem = obs::HwTelemetry::global();
    if (telem.enabled())
        telem.exportTo(run.metrics);
    if (const obs::TimeSeriesSampler *sampler = run.timeSeries.get()) {
        sampler->exportTo(run.metrics);
        const std::string &ts_path = cli.str("timeseries-out");
        if (sampler->writeFile(ts_path)) {
            std::printf("  timeseries:    wrote %s (%zu samples)\n",
                        ts_path.c_str(), sampler->size());
        }
    }
    if (const obs::RequestLogger *rlog = run.requestLog.get()) {
        // Export before the metrics snapshot so the tail.blame.*
        // gauges land in --metrics-out; a run without logging never
        // calls exportTo, keeping its metric set byte-identical.
        rlog->exportTo(run.metrics);
        const std::string &rl_path = cli.str("request-log-out");
        if (!rl_path.empty() && rlog->writeFile(rl_path)) {
            std::printf("  request log:   wrote %s (%zu records)\n",
                        rl_path.c_str(), rlog->size());
        }
        const std::string &ex_path = cli.str("exemplars-out");
        if (!ex_path.empty() && rlog->writeExemplars(ex_path)) {
            std::printf("  exemplars:     wrote %s\n", ex_path.c_str());
        }
    }
    telem.setEnabled(false);

    obs::Tracer &tracer = obs::Tracer::global();
    const std::string &trace_path = cli.str("trace-out");
    if (!trace_path.empty()) {
        tracer.setEnabled(false);
        if (tracer.writeFile(trace_path)) {
            std::printf("  trace:         wrote %s (%zu events)\n",
                        trace_path.c_str(), tracer.snapshot().size());
        }
    }
    const std::string &metrics_path = cli.str("metrics-out");
    if (metrics_path.empty())
        return;
    obs::MetricsSnapshot snap = run.metrics.snapshot();
    if (std::ofstream(metrics_path) << snap.toJson())
        std::printf("  metrics:       wrote %s\n", metrics_path.c_str());
    else
        std::fprintf(stderr, "warning: cannot write %s\n",
                     metrics_path.c_str());
    std::printf("metrics summary:\n%s", snap.table().c_str());
}

int
cmdServe(const Cli &cli, Run &run)
{
    obsBegin(cli, run);
    ModelConfig cfg = findModel(cli.str("model")).value();
    MachineSpec machine = machineByName(cli.str("machine"));
    ServerOptions sopts;
    sopts.numWorkers = static_cast<uint32_t>(cli.i64("workers"));
    sopts.maxBatch = cli.i64("batch");
    sopts.slaSeconds = cli.num("sla-ms") / 1e3;
    sopts.admission = admissionFromArgs(cli);
    sopts.degrade = degradeFromArgs(cli);
    sopts.clusterReplicas = static_cast<uint32_t>(cli.i64("cluster-replicas"));
    sopts.healthyReplicas = static_cast<uint32_t>(cli.i64("healthy-replicas"));
    sopts.deadlineSeconds = cli.num("deadline-ms") / 1e3;
    sopts.brownout = brownoutFromArgs(cli);
    sopts.faults = loadFaultsFromArgs(cli);

    TimerOptions topts;
    topts.seed = static_cast<uint64_t>(cli.i64("seed"));
    topts.backend = run.backend;
    Server server(machine, cfg, topts, sopts);
    ServingStats stats = server.runOpenLoop(
        cli.num("rate"), static_cast<uint64_t>(cli.i64("items")),
        run.requestLog.get(), run.timeSeries.get());

    std::printf("serving %s on %s: %u workers, max batch %lld, SLA "
                "%.1f ms\n", cfg.name.c_str(), machine.name.c_str(),
                sopts.numWorkers, static_cast<long long>(sopts.maxBatch),
                sopts.slaSeconds * 1e3);
    if (sopts.clusterReplicas > 1) {
        uint32_t healthy = sopts.healthyReplicas == 0
            ? sopts.clusterReplicas : sopts.healthyReplicas;
        std::printf("  tier health:   %10u of %u replicas (overload "
                    "responses arm %.1fx earlier)\n", healthy,
                    sopts.clusterReplicas,
                    static_cast<double>(sopts.clusterReplicas) / healthy);
    }
    std::printf("  offered rate:  %10.0f items/s\n",
                cli.num("rate"));
    if (sopts.deadlineSeconds > 0.0) {
        std::printf("  deadline:      %10.1f ms budget%s\n",
                    sopts.deadlineSeconds * 1e3,
                    sopts.brownout.enabled ? ", brownout ladder armed"
                                           : "");
    }
    stats.exportTo(run.metrics);
    std::fputs(ServingStats::summarize(run.metrics.snapshot()).c_str(),
               stdout);
    obsEnd(cli, run);
    return 0;
}

void
printResilientResult(const RunResult &r)
{
    std::printf("  completed:     %10llu inferences (%.2f%% "
                "availability)\n",
                static_cast<unsigned long long>(r.completed),
                r.availability() * 100);
    std::printf("  failed:        %10llu (retry exhaustion)\n",
                static_cast<unsigned long long>(r.failed));
    if (r.deadlineExpired || r.deadlineFastFails) {
        std::printf("  deadline-shed: %10llu cancelled (%llu fail-fast "
                    "skips)\n",
                    static_cast<unsigned long long>(r.deadlineExpired),
                    static_cast<unsigned long long>(r.deadlineFastFails));
    }
    std::printf("  latency p50:   %10.3f ms\n", r.latency.p(50) * 1e3);
    std::printf("  latency p99:   %10.3f ms\n", r.latency.p(99) * 1e3);
    std::printf("  goodput:       %10.0f inf/s\n", r.goodput());
    std::printf("  hedges:        %10llu issued, %llu won\n",
                static_cast<unsigned long long>(r.hedgesIssued),
                static_cast<unsigned long long>(r.hedgeWins));
    std::printf("  retries:       %10llu (%llu timeouts, %llu down "
                "shards)\n",
                static_cast<unsigned long long>(r.retries),
                static_cast<unsigned long long>(r.timeouts),
                static_cast<unsigned long long>(r.shardDownEncounters));
    std::printf("  hedge cost:    %10.3f ms compute, %.1f KB network\n",
                r.hedgeExtraSeconds * 1e3, r.hedgeExtraBytes / 1024.0);
    std::printf("  wasted:        %10.3f ms (timeouts + failures)\n",
                r.wastedSeconds * 1e3);
}

/** SDC defense summary; silent when no controller ran. */
void
printSdcSummary(const RunResult &r)
{
    if (!r.sdc.active)
        return;
    const SdcStats &s = r.sdc;
    std::printf("  integrity:     %llu row + %llu FC corruptions, %llu "
                "detected (%llu scrub, %llu inline, %llu guard, %llu "
                "canary)\n",
                static_cast<unsigned long long>(s.injectedRows),
                static_cast<unsigned long long>(s.injectedFc),
                static_cast<unsigned long long>(s.detected),
                static_cast<unsigned long long>(s.detectedScrub),
                static_cast<unsigned long long>(s.detectedInline),
                static_cast<unsigned long long>(s.detectedGuard),
                static_cast<unsigned long long>(s.detectedCanary));
    std::printf("  quarantine:    %llu rows quarantined, %llu repairs, "
                "%llu rehydrates (%llu rows wiped)\n",
                static_cast<unsigned long long>(s.quarantinedRows),
                static_cast<unsigned long long>(s.repairs),
                static_cast<unsigned long long>(s.rehydrates),
                static_cast<unsigned long long>(s.rowsRehydrated));
    std::printf("  escapes:       %llu corrupted responses served, "
                "%llu degraded\n",
                static_cast<unsigned long long>(s.corruptedServed),
                static_cast<unsigned long long>(s.degradedServed));
    if (!s.detectionLatency.empty()) {
        std::printf("  detection:     %10.3f ms p50, %.3f ms p99 "
                    "injection-to-detection\n",
                    s.detectionLatency.p(50.0) * 1e3,
                    s.detectionLatency.p(99.0) * 1e3);
    }
}

int
cmdShard(const Cli &cli, Run &run)
{
    obsBegin(cli, run);
    ModelConfig cfg = findModel(cli.str("model")).value();
    MachineSpec machine = machineByName(cli.str("machine"));
    TimerOptions topts;
    topts.batch = cli.i64("batch");
    topts.seed = static_cast<uint64_t>(cli.i64("seed"));
    topts.backend = run.backend;
    auto nodes = static_cast<uint32_t>(cli.i64("nodes"));
    int iters = static_cast<int>(cli.i64("iters"));

    FaultOptions faults = shardFaultsFromArgs(cli);
    RetryPolicy retry = retryFromArgs(cli);
    HedgePolicy hedge = hedgeFromArgs(cli);
    ReplicaOptions replicas = replicasFromArgs(cli);

    ShardedInference sim(machine, cfg, nodes, NetworkConfig{}, topts);

    std::printf("sharded %s on %u x %s, batch %lld (straggler p=%.2f, "
                "MTBF %.0f ms, hedge %s)\n", cfg.name.c_str(), nodes,
                machine.name.c_str(),
                static_cast<long long>(topts.batch),
                faults.stragglerProb, faults.shardMtbfSeconds * 1e3,
                hedge.enabled ? "on" : "off");

    RunOptions ropts;
    ropts.warmupIters = 20;
    ropts.measureIters = iters;
    ropts.faults = faults;
    ropts.retry = retry;
    ropts.hedge = hedge;
    ropts.deadlineSeconds = cli.num("deadline-ms") / 1e3;
    if (ropts.deadlineSeconds > 0.0) {
        std::printf("  deadline:      %10.1f ms budget per inference\n",
                    ropts.deadlineSeconds * 1e3);
    }
    ropts.sdc = sdcFromArgs(cli);
    FaultLog fault_log;
    const std::string fault_log_path = cli.str("fault-log-out");
    if (!fault_log_path.empty())
        ropts.faultLog = &fault_log;
    ropts.requestLog = run.requestLog.get();
    ropts.timeSeries = run.timeSeries.get();
    if (faults.corruption.enabled() || ropts.sdc.anyDefense()) {
        std::printf("  sdc:           %.1f corruptions/s, scrub %.1f ms, "
                    "inline %.2f, guards %s, canary %.1f ms\n",
                    faults.corruption.ratePerSec,
                    ropts.sdc.scrubIntervalSeconds * 1e3,
                    ropts.sdc.inlineSampleRate,
                    ropts.sdc.outputGuards ? "on" : "off",
                    ropts.sdc.canaryIntervalSeconds * 1e3);
    }

    ropts.replicas = replicas;
    ChaosSchedule chaos;
    auto chaos_events = static_cast<uint32_t>(cli.i64("chaos-events"));
    if (chaos_events > 0) {
        // Horizon heuristic: virtual time advances by roughly one
        // per-inference latency per iteration; scale from the SLA-ish
        // chaos window length instead of pre-timing the model.
        double horizon = static_cast<double>(iters) * cli.num("chaos-ms") / 1e3;
        chaos = ChaosSchedule::random(
            faults.seed, nodes, replicas.replicas, horizon, chaos_events,
            cli.num("chaos-ms") / 1e3);
        ropts.chaos = &chaos;
    }

    RunResult r = sim.run(ropts);
    // The replica layer's lines print once it has something to say: a
    // second copy to route to, or a router that acted on a single one.
    bool layer = replicas.replicas > 1 || r.breakerOpens > 0 ||
        r.breakerRejects > 0 || r.replicaSkips > 0;
    if (layer) {
        std::printf("  failover layer: %u replicas/shard, router %s, "
                    "breaker %d errors -> open %.1f ms, warm-up %.2fx "
                    "over %.1f ms%s\n", replicas.replicas,
                    routerPolicyName(replicas.router),
                    replicas.breaker.errorThreshold,
                    replicas.breaker.openSeconds * 1e3,
                    r.warmupFactorUsed, replicas.warmupSeconds * 1e3,
                    chaos_events > 0
                        ? strprintf(", %u chaos windows", chaos_events)
                              .c_str()
                        : "");
    }
    printResilientResult(r);
    if (layer) {
        std::printf("  failovers:     %10llu served by a backup replica\n",
                    static_cast<unsigned long long>(r.failovers));
        if (r.replicaSkips) {
            std::printf("  replica skips: %10llu EWMA over the remaining "
                        "deadline budget\n",
                        static_cast<unsigned long long>(r.replicaSkips));
        }
        std::printf("  breakers:      %10llu opened, %llu re-closed, %llu "
                    "probes, %llu all-open rejects\n",
                    static_cast<unsigned long long>(r.breakerOpens),
                    static_cast<unsigned long long>(r.breakerCloses),
                    static_cast<unsigned long long>(r.probesAdmitted),
                    static_cast<unsigned long long>(r.breakerRejects));
        std::printf("  warm-up cost:  %10.3f ms re-filling recovered "
                    "replicas' caches\n", r.warmupPenaltySeconds * 1e3);
    }
    printSdcSummary(r);
    if (!fault_log_path.empty()) {
        fault_log.writeFile(fault_log_path);
        std::printf("  fault log:     wrote %s (%zu events)\n",
                    fault_log_path.c_str(), fault_log.size());
    }
    r.exportTo(run.metrics);
    obsEnd(cli, run);
    return 0;
}

int
cmdEval(const Cli &cli, Run &run)
{
    // Unlike `time` (the calibrated timing model), this executes the
    // real tensor graph on the thread pool and reports wall-clock
    // throughput — the honest hot path the execution engine serves.
    ModelConfig cfg =
        findModel(cli.str("model")).value()
            .functionalScale(cli.i64("rows-cap"));
    int64_t batch = cli.i64("batch");
    int iters = static_cast<int>(cli.i64("iters"));
    Rng rng(static_cast<uint64_t>(cli.i64("seed")));
    RecModel model(cfg, rng);
    ModelInput input = model.randomInput(batch, rng);

    // Functional integrity: shield the real tables with per-row
    // checksums, optionally flip seeded bits into them, and let the
    // inline SLS hook detect and repair whatever the fixed input
    // actually gathers. With --integrity-sample alone the output
    // checksum is bit-identical to an unshielded run.
    double sample = cli.num("integrity-sample");
    int64_t flips = cli.i64("corrupt-events");
    std::vector<std::unique_ptr<IntegrityShield>> shields;
    std::vector<std::unique_ptr<InlineVerifier>> verifiers;
    if (sample > 0.0) {
        std::vector<EmbeddingTable> &tables = model.tables();
        for (size_t t = 0; t < tables.size(); ++t) {
            shields.push_back(std::make_unique<IntegrityShield>(
                IntegrityShield::forTable(tables[t],
                                          strprintf("table%zu", t))));
            shields.back()->seal();
            verifiers.push_back(
                std::make_unique<InlineVerifier>(*shields.back(), sample));
            tables[t].setVerifier(verifiers.back().get());
        }
        if (flips > 0) {
            Rng corrupt_rng(
                static_cast<uint64_t>(cli.i64("fault-seed")) ^
                0x5dc0ffeeb5ULL);
            for (int64_t i = 0; i < flips; ++i) {
                size_t t = static_cast<size_t>(
                    corrupt_rng.nextBelow(shields.size()));
                int64_t row = static_cast<int64_t>(corrupt_rng.nextBelow(
                    static_cast<uint64_t>(shields[t]->rows())));
                uint64_t bit = corrupt_rng.nextBelow(
                    static_cast<uint64_t>(shields[t]->rowBytes()) * 8);
                shields[t]->flipBit(row, bit);
            }
        }
    }

    for (int i = 0; i < 2; ++i)
        (void)model.forward(input); // warm-up
    obsBegin(cli, run);
    obs::LatencyHistogram batch_hist =
        run.metrics.histogram("eval.batch_seconds");
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
        auto it0 = std::chrono::steady_clock::now();
        (void)model.forward(input);
        batch_hist.record(std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - it0)
                              .count());
    }
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count() /
        static_cast<double>(iters);
    run.metrics.gauge("eval.throughput_items_per_s")
        .set(static_cast<double>(batch) / secs);

    std::printf("eval %s (rows capped at %lld), batch %lld, "
                "%d threads:\n",
                cfg.name.c_str(),
                static_cast<long long>(cli.i64("rows-cap")),
                static_cast<long long>(batch), globalThreadCount());
    std::printf("  latency:    %10.3f ms / batch (measured)\n",
                secs * 1e3);
    std::printf("  throughput: %10.0f items/s\n",
                static_cast<double>(batch) / secs);
    // FNV-1a over the final forward's output bytes: with a pinned
    // --isa this line is bit-identical across thread counts and cache
    // cold/warm runs (CI diffs it as the determinism anchor).
    Tensor out = model.forward(input);
    const unsigned char *bytes =
        reinterpret_cast<const unsigned char *>(out.data());
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (size_t i = 0; i < static_cast<size_t>(out.size()) * sizeof(float);
         ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ULL;
    }
    std::printf("  checksum:   %016llx (isa %s)\n",
                static_cast<unsigned long long>(hash),
                KernelCache::global().policy().autoSelect
                    ? "auto"
                    : kernelIsaName(
                          KernelCache::global().policy().pinned));
    if (sample > 0.0) {
        InlineVerifyStats integrity;
        for (const std::unique_ptr<InlineVerifier> &v : verifiers)
            integrity += v->stats();
        integrity.exportTo(run.metrics);
        std::printf("  integrity:  %llu/%llu batches verified, %llu "
                    "corruptions detected, %llu rows repaired\n",
                    static_cast<unsigned long long>(
                        integrity.verifiedBatches),
                    static_cast<unsigned long long>(integrity.batches),
                    static_cast<unsigned long long>(integrity.detected),
                    static_cast<unsigned long long>(integrity.repaired));
    }
    if (cli.flag("dump-kernel-cache"))
        std::fputs(KernelCache::global().dumpTable().c_str(), stdout);
    obsEnd(cli, run);
    return 0;
}

int
cmdTrace(const Cli &cli, Run &)
{
    TraceProfile profile{"cli", cli.num("zipf"),
                         cli.num("repeat"), 8192};
    Rng rng(static_cast<uint64_t>(cli.i64("seed")));
    auto gen = makeGenerator(profile, cli.i64("rows"),
                             rng.split());
    auto trace = gen->draw(static_cast<size_t>(cli.i64("items")));
    std::printf("trace: zipf alpha %.2f, repeat prob %.2f over %lld "
                "rows\n", profile.zipfAlpha, profile.repeatProb,
                static_cast<long long>(cli.i64("rows")));
    std::printf("  unique sparse IDs: %.1f%% of %zu draws\n",
                uniqueFraction(trace) * 100.0, trace.size());
    return 0;
}

/**
 * Slurp a whole artifact. An unreadable or empty file (an empty one
 * renders nothing) prints an error and returns false (exit 2).
 */
bool
readFile(const std::string &path, std::string *out)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    *out = text.str();
    if (in && !out->empty())
        return true;
    std::fprintf(stderr, "error: %s %s\n", in ? "empty artifact" :
                 "cannot read", path.c_str());
    return false;
}

int
cmdReport(const Cli &cli, Run &)
{
    obs::ReportInputs inputs;
    std::string err;
    const std::pair<const char *, std::string *> sources[] = {
        {"metrics", &inputs.metricsJson},
        {"trace", &inputs.traceJson},
        {"timeseries", &inputs.timeseriesJsonl}};
    bool any = false;
    for (const auto &[flag, dst] : sources) {
        const std::string &path = cli.str(flag);
        if (path.empty())
            continue;
        if (!readFile(path, dst))
            return 2;
        any = true;
    }
    if (!any) {
        std::fprintf(stderr,
                     "error: report needs at least one artifact "
                     "(--metrics, --trace, and/or --timeseries)\n");
        return 2;
    }
    // Every render failure is a malformed artifact: bad input, exit 2.
    std::string report = obs::renderReport(inputs, err);
    if (report.empty()) {
        std::fprintf(stderr, "error: %s\n", err.c_str());
        return 2;
    }
    std::fputs(report.c_str(), stdout);
    return 0;
}

int
cmdExplain(const Cli &cli, Run &)
{
    obs::ExplainInputs inputs;
    std::string err;
    const std::string &log_path = cli.str("request-log");
    if (log_path.empty()) {
        std::fprintf(stderr, "error: explain needs --request-log FILE (a "
                             "serve/shard --request-log-out artifact)\n");
        return 2;
    }
    const std::string &metrics_path = cli.str("metrics");
    if (!readFile(log_path, &inputs.requestLogJsonl) ||
        (!metrics_path.empty() &&
         !readFile(metrics_path, &inputs.metricsJson)))
        return 2;
    inputs.top = static_cast<int>(cli.i64("top"));
    std::string view = obs::renderExplain(inputs, err);
    if (view.empty()) {
        std::fprintf(stderr, "error: %s\n", err.c_str());
        return 2;
    }
    std::fputs(view.c_str(), stdout);
    return 0;
}

int
cmdZoo(const Cli &, Run &)
{
    std::printf("model zoo:\n");
    for (const ModelConfig &cfg : allZooModels()) {
        std::printf("  %-12s %2lld tables x %8lld rows, %3lld lookups, "
                    "%6.2f GB emb, %8.2fM FC params\n", cfg.name.c_str(),
                    static_cast<long long>(cfg.emb.numTables),
                    static_cast<long long>(cfg.emb.rowsPerTable),
                    static_cast<long long>(cfg.emb.lookupsPerTable),
                    cfg.embStorageBytes() / 1e9,
                    cfg.fcParamCount() / 1e6);
    }
    std::printf("machines:\n");
    for (const MachineSpec &m : fleetMachines()) {
        std::printf("  %-10s %.1f GHz, %2u cores/socket, %s, L3 %.1f MB "
                    "(%s), %s\n", m.name.c_str(), m.freqGHz,
                    m.coresPerSocket, simdIsaName(m.simd.isa),
                    m.l3.sizeBytes / 1024.0 / 1024.0,
                    m.policy == InclusionPolicy::Inclusive ? "inclusive"
                                                           : "exclusive",
                    m.dram.ddrType.c_str());
    }
    return 0;
}

/** Why @p value, given as @p what, is unusable for @p f; "" if usable. */
std::string
badValue(const FlagSpec &f, const std::string &what,
         const std::string &value)
{
    if (f.kind == kChoice) {
        if (("|" + std::string(f.domain) + "|").find("|" + value + "|") !=
            std::string::npos)
            return "";
        return strprintf("%s: unknown value '%s' (expected %s)",
                         what.c_str(), value.c_str(), f.domain);
    }
    if (f.kind == kFlag || f.kind == kText)
        return "";
    char *end = nullptr;
    errno = 0;
    double v = f.kind == kNum
        ? std::strtod(value.c_str(), &end)
        : static_cast<double>(std::strtoll(value.c_str(), &end, 10));
    if (value.empty() || *end != '\0')
        return strprintf("%s expects %s, got '%s'", what.c_str(),
                         f.kind == kNum ? "a number" : "an integer",
                         value.c_str());
    if (!std::isfinite(v))
        return strprintf("%s must be finite (got %s)", what.c_str(),
                         value.c_str());
    if ((f.kind == kInt64 && errno == ERANGE) ||
        (f.kind == kInt && std::fabs(v) > INT32_MAX))
        return strprintf("%s: %s overflows a %d-bit integer", what.c_str(),
                         value.c_str(), f.kind == kInt ? 32 : 64);
    if (!*f.domain)
        return "";
    // "[lo,hi)": the brackets pick closed or open ends.
    double lo = std::strtod(f.domain + 1, nullptr);
    double hi = std::strtod(std::strchr(f.domain, ',') + 1, nullptr);
    bool open_hi = f.domain[std::strlen(f.domain) - 1] == ')';
    if ((f.domain[0] == '(' ? v > lo : v >= lo) && (open_hi ? v < hi : v <= hi))
        return "";
    return strprintf("%s must be in %s (got %s)", what.c_str(), f.domain,
                     value.c_str());
}

/** Whether parent flag @p f is on, so that its children take effect. */
bool
active(const Cli &cli, const FlagSpec &f)
{
    if (f.kind == kFlag)
        return cli.flag(f.name);
    if (f.kind == kText)
        return !cli.str(f.name).empty();
    if (f.kind != kChoice)
        return cli.num(f.name) > f.activeAbove;
    std::string_view choices = f.domain;
    return cli.str(f.name) != choices.substr(0, choices.find('|'));
}

/**
 * The one generic pre-dispatch check: every given flag must be read by
 * @p command, parse as its kind, be finite and in range, and have an
 * active parent (parents precede children in kFlags, so a parent is
 * checked first); env values must parse too. Returns the first error.
 */
std::string
checkFlags(const ArgParser &args, unsigned command)
{
    Cli cli(args, command);
    for (const FlagSpec &f : kFlags) {
        bool given = args.explicitlySet(f.name);
        if (!(f.scope & command)) {
            if (!given)
                continue;
            return strprintf("--%s is not read by %s (it applies to: %s)",
                             f.name, commandNames(command).c_str(),
                             commandNames(f.scope).c_str());
        }
        std::string err;
        if (given && f.kind != kFlag)
            err = badValue(f, std::string("--") + f.name,
                           args.option(f.name));
        const char *env = f.env ? std::getenv(f.env) : nullptr;
        if (err.empty() && env)
            err = badValue(f, f.env, env);
        if (!err.empty())
            return err;
        if (!given || !f.parent || active(cli, spec(f.parent)))
            continue;
        const FlagSpec &parent = spec(f.parent);
        if (parent.kind == kChoice || parent.activeAbove > 0)
            return strprintf("--%s has no effect with --%s=%s", f.name,
                             f.parent, cli.str(f.parent).c_str());
        return strprintf("--%s has no effect without --%s", f.name,
                         f.parent);
    }
    return "";
}

/** Help for one command (its bit), or for all of them (0). */
std::string
helpText(unsigned command)
{
    std::string out = command
        ? "usage: recperf " + commandNames(command) + " [options]\n\n"
          "options:\n"
        : "usage: recperf <time|colocate|serve|shard|trace|eval|report|"
          "explain|zoo> [options]\n\n`recperf <command> --help` lists "
          "only the options that command reads; any other option is "
          "an error.\n\noptions [commands that read them]:\n";
    for (const FlagSpec &f : kFlags) {
        if (command && !(f.scope & command))
            continue;
        std::string lhs = f.name, line = f.help;
        if (f.kind == kChoice)
            line += strprintf(": %s", f.domain);
        if (f.env)
            line += strprintf(" (unset: $%s)", f.env);
        if (f.kind != kFlag) {
            lhs += " <v>";
            line += strprintf(" (default: %s)", f.def);
        }
        if (f.kind != kChoice && *f.domain)
            line += strprintf(" (in %s)", f.domain);
        if (f.parent && spec(f.parent).activeAbove > 0)
            line += strprintf(" (needs --%s > %g)", f.parent,
                              spec(f.parent).activeAbove);
        else if (f.parent)
            line += strprintf(" (needs --%s)", f.parent);
        if (!command)
            line += " [" + commandNames(f.scope) + "]";
        out += strprintf("  --%-26s %s\n", lhs.c_str(), line.c_str());
    }
    return out;
}

/**
 * Resolves --backend and the nmp knobs into one validated backend spec
 * in @p out, and pins --isa in the kernel cache before any kernel runs
 * (flag > env > default for each); returns the message when either is
 * unusable.
 */
std::string
configureBackend(const Cli &cli, BackendConfig *out)
{
    BackendConfig backend;
    std::string err = backendConfigFromSpec(cli.str("backend"), &backend);
    if (!err.empty())
        return "--backend: " + err;
    const std::string isa_name = cli.str("isa");
    IsaPolicy isa;
    if (!(err = isaPolicyFromName(isa_name, &isa)).empty())
        return "--isa: " + err;
    if (!isa.autoSelect && !microkernels::kernelsFor(isa.pinned).available)
        return "--isa: ISA tier '" + isa_name +
            "' was not compiled into this binary";
    if (backend.kind == BackendKind::Nmp) {
        NmpConfig &nmp = backend.nmp;
        nmp.ranks = static_cast<uint32_t>(cli.i64("nmp-ranks"));
        nmp.rankGBps = cli.num("nmp-rank-gbps");
        nmp.rowAccessNs = cli.num("nmp-row-ns");
        nmp.linkGBps = cli.num("nmp-link-gbps");
        nmp.launchUs = cli.num("nmp-launch-us");
        nmp.minTableBytes =
            static_cast<uint64_t>(cli.i64("nmp-min-table-kb")) * 1024;
        nmp.hostLlcFraction = cli.num("nmp-host-llc-frac");
        // The row's choices are exactly the names the parser accepts.
        nmpPlacementFromName(cli.str("nmp-placement"), &nmp.placement);
        if (!(err = nmp.validate()).empty())
            return "--backend=nmp: " + err;
    }
    KernelCache::global().setPolicy(isa);
    *out = backend;
    return "";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string command = argc > 1 ? argv[1] : "help";
    std::vector<std::string> rest(argv + std::min(argc, 2), argv + argc);
    auto named = std::find(std::begin(kCommands), std::end(kCommands),
                           command);
    unsigned bit = named == std::end(kCommands)
        ? 0 : 1u << (named - std::begin(kCommands));
    if (!bit && command != "help") {
        std::fprintf(stderr, "error: unknown command '%s'; try: recperf "
                             "help\n", command.c_str());
        return 2;
    }

    ArgParser args("recperf " + command,
                   "RecPerf experiment driver (HPCA'20 reproduction)");
    for (const FlagSpec &f : kFlags) {
        if (f.kind == kFlag)
            args.addFlag(f.name, f.help);
        else
            args.addOption(f.name, f.def, f.help);
    }
    std::string err;
    if (!args.parse(rest, &err)) {
        std::fprintf(stderr, "error: %s (see: recperf %s --help)\n",
                     err.c_str(), command.c_str());
        return 2;
    }
    if (!bit || args.flag("help")) {
        std::fputs(helpText(bit).c_str(), stdout);
        return 0;
    }

    Cli cli(args, bit);
    Run run;
    if (!args.positional().empty())
        err = "unexpected argument '" + args.positional().front() + "'";
    if (err.empty())
        err = checkFlags(args, bit);
    if (err.empty() && (bit & kModel) && !findModel(cli.str("model")))
        err = strprintf("--model: unknown model '%s' (try: rmc1, rmc2, "
                        "rmc3, rmc3-dot, ncf, or a full zoo name)",
                        cli.str("model").c_str());
    // The pool is sized before the backend spec installs its kernels.
    if (err.empty() && bit == kEval && cli.i64("threads") > 0)
        setGlobalThreadCount(static_cast<int>(cli.i64("threads")));
    if (err.empty() && (bit & kModel))
        err = configureBackend(cli, &run.backend);
    if (err.empty() && (bit & kServing))
        err = validateServingArgs(cli);
    if (!err.empty()) {
        std::fprintf(stderr, "error: %s\n", err.c_str());
        return 2;
    }

    // Indexed like kCommands.
    int (*const handlers[])(const Cli &, Run &) = {
        cmdTime, cmdColocate, cmdServe,   cmdShard, cmdTrace,
        cmdEval, cmdReport,   cmdExplain, cmdZoo};
    try {
        return handlers[std::countr_zero(bit)](cli, run);
    } catch (const FatalError &e) {
        // Input found unusable only once the run has calibrated.
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    } catch (const std::bad_alloc &) {
        std::fprintf(stderr, "error: out of memory\n");
        return 1;
    }
}
