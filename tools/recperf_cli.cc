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
 *   shard     sharded inference under injected faults with
 *             timeout/retry and hedged requests; --replicas >= 2 adds
 *             the failover layer (health-checked replica routing,
 *             per-replica circuit breakers, recovery warm-up)
 *   trace     report the unique-ID fraction of a trace profile
 *   eval      execute the real tensor model (thread-pool hot path)
 *             and report measured throughput
 *   report    render a run report (latency percentiles, operator
 *             breakdown, cache MPKI, roofline placement, SLO burn)
 *             from saved --metrics-out/--trace-out/--timeseries-out
 *             artifacts
 *   zoo       list the model zoo and machine fleet
 *
 * The global --threads flag (or RECPERF_THREADS) sizes the worker
 * pool used by every tensor kernel. time/serve/shard/eval accept
 * --trace-out=<file> (Chrome trace-event JSON; open in Perfetto) and
 * --metrics-out=<file> (metrics-registry JSON plus a summary table).
 * --counters turns on the hardware-model telemetry (FLOPs, bytes,
 * per-level cache stats, roofline gauges) and --timeseries-out=<file>
 * additionally samples it on a fixed virtual-time cadence into JSONL
 * (--timeseries-interval-ms sets the cadence).
 *
 * Examples:
 *   recperf time --model rmc2 --machine skylake --batch 64
 *   recperf colocate --model rmc2 --machine broadwell --max-tenants 8
 *   recperf serve --model rmc1 --workers 8 --rate 50000 --sla-ms 10
 *   recperf serve --rate 80000 --admission --admit-wait 0.5 \
 *                 --straggler-prob 0.05
 *   recperf shard --model rmc2 --nodes 8 --hedge --mtbf-ms 50
 *   recperf shard --nodes 4 --replicas 2 --router p2c --hedge \
 *                 --mtbf-ms 10 --mttr-ms 1
 *   recperf trace --zipf 1.05 --repeat 0.65
 *   recperf eval --model rmc2 --batch 64 --threads 8
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

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

void obsBegin(ArgParser &args);
void obsEnd(ArgParser &args);

ModelConfig
modelByName(const std::string &name)
{
    for (const ModelConfig &cfg : allZooModels()) {
        if (cfg.name == name)
            return cfg;
    }
    if (name == "rmc1")
        return rmc1Small();
    if (name == "rmc2")
        return rmc2Small();
    if (name == "rmc3")
        return rmc3Small();
    if (name == "rmc3-dot")
        return rmc3Dot();
    if (name == "ncf")
        return ncfConfig();
    RP_FATAL("unknown model '%s' (try: rmc1, rmc2, rmc3, rmc3-dot, ncf, "
             "or a full zoo name)", name.c_str());
}

MachineSpec
machineByName(const std::string &name)
{
    for (const MachineSpec &m : fleetMachines()) {
        std::string lower = m.name;
        for (char &c : lower)
            c = static_cast<char>(std::tolower(c));
        if (lower == name)
            return m;
    }
    RP_FATAL("unknown machine '%s' (try: haswell, broadwell, skylake)",
             name.c_str());
}

int
cmdTime(ArgParser &args)
{
    obsBegin(args);
    ModelConfig cfg = modelByName(args.option("model"));
    MachineSpec machine = machineByName(args.option("machine"));
    TimerOptions opts;
    opts.batch = args.optionInt("batch");
    opts.zipfAlpha = args.optionDouble("zipf");
    opts.repeatProb = args.optionDouble("repeat");
    opts.seed = static_cast<uint64_t>(args.optionInt("seed"));
    opts.backend = activeBackendConfig();

    ModelTimer timer(machine, cfg, opts);
    ModelTiming t = timer.steadyState(
        static_cast<int>(args.optionInt("iters")),
        static_cast<int>(args.optionInt("iters")));

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
    obsEnd(args);
    return 0;
}

int
cmdColocate(ArgParser &args)
{
    ModelConfig cfg = modelByName(args.option("model"));
    MachineSpec machine = machineByName(args.option("machine"));
    auto max_tenants =
        static_cast<uint32_t>(args.optionInt("max-tenants"));
    TimerOptions opts;
    opts.batch = args.optionInt("batch");
    opts.seed = static_cast<uint64_t>(args.optionInt("seed"));
    opts.backend = activeBackendConfig();

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
corruptionFromArgs(ArgParser &args)
{
    CorruptionOptions c;
    c.ratePerSec = args.optionDouble("corrupt-rate");
    c.zipfAlpha = args.optionDouble("corrupt-zipf");
    c.multiBitFraction = args.optionDouble("corrupt-multi-bit");
    c.stuckRowFraction = args.optionDouble("corrupt-stuck-row");
    c.fcFraction = args.optionDouble("corrupt-fc");
    return c;
}

/** SDC detection/recovery ladder options (shard). */
SdcOptions
sdcFromArgs(ArgParser &args)
{
    SdcOptions s;
    s.scrubIntervalSeconds = args.optionDouble("scrub-interval-ms") / 1e3;
    s.inlineSampleRate = args.optionDouble("integrity-sample");
    s.outputGuards = args.flag("integrity-guards");
    s.canaryIntervalSeconds =
        args.optionDouble("integrity-canary-ms") / 1e3;
    s.repairRttSeconds = args.optionDouble("repair-rtt-us") / 1e6;
    s.repairBandwidthGBps = args.optionDouble("repair-gbps");
    s.drainDensity = args.optionDouble("drain-density");
    return s;
}

/** Failure-model options shared by serve and shard. */
FaultOptions
faultsFromArgs(ArgParser &args)
{
    FaultOptions f;
    f.stragglerProb = args.optionDouble("straggler-prob");
    f.stragglerAlpha = args.optionDouble("straggler-alpha");
    f.stragglerMin = args.optionDouble("straggler-min");
    f.shardMtbfSeconds = args.optionDouble("mtbf-ms") / 1e3;
    f.shardMttrSeconds = args.optionDouble("mttr-ms") / 1e3;
    f.spikeRatePerSec = args.optionDouble("spike-rate");
    f.spikeDurationSeconds = args.optionDouble("spike-ms") / 1e3;
    f.spikeFactor = args.optionDouble("spike-factor");
    f.seed = static_cast<uint64_t>(args.optionInt("fault-seed"));
    f.corruption = corruptionFromArgs(args);
    return f;
}

/** Retry/hedge policies shared by the shard paths. */
RetryPolicy
retryFromArgs(ArgParser &args)
{
    RetryPolicy retry;
    retry.timeoutSeconds = args.optionDouble("timeout-ms") / 1e3;
    retry.maxRetries = static_cast<int>(args.optionInt("retries"));
    return retry;
}

HedgePolicy
hedgeFromArgs(ArgParser &args)
{
    HedgePolicy hedge;
    hedge.enabled = args.flag("hedge");
    hedge.delaySeconds = args.optionDouble("hedge-ms") / 1e3;
    return hedge;
}

ReplicaOptions
replicasFromArgs(ArgParser &args, std::string *error)
{
    ReplicaOptions r;
    int64_t replicas = args.optionInt("replicas");
    if (replicas < 1) {
        *error = strprintf("--replicas must be >= 1 (got %lld)",
                           static_cast<long long>(replicas));
        return r;
    }
    r.replicas = static_cast<uint32_t>(replicas);
    if (!routerPolicyFromName(args.option("router"), &r.router)) {
        *error = strprintf("unknown --router '%s' (try: primary-first, "
                           "least-loaded, p2c)",
                           args.option("router").c_str());
        return r;
    }
    r.breaker.errorThreshold =
        static_cast<int>(args.optionInt("breaker-errors"));
    r.breaker.openSeconds = args.optionDouble("breaker-open-ms") / 1e3;
    r.breaker.probeAdmitProb = args.optionDouble("breaker-probe");
    r.breaker.closeAfterProbes =
        static_cast<int>(args.optionInt("breaker-close-probes"));
    r.warmupSeconds = args.optionDouble("warmup-ms") / 1e3;
    r.warmupFactor = args.optionDouble("warmup-factor");
    r.seed = static_cast<uint64_t>(args.optionInt("fault-seed"));
    return r;
}

BrownoutOptions
brownoutFromArgs(ArgParser &args)
{
    BrownoutOptions b;
    b.enabled = args.flag("brownout");
    b.enterBurn = args.optionDouble("brownout-enter");
    b.escalationGrowth = args.optionDouble("brownout-growth");
    b.exitFraction = args.optionDouble("brownout-exit");
    b.dwellSeconds = args.optionDouble("brownout-dwell-ms") / 1e3;
    b.truncateFraction = args.optionDouble("brownout-truncate");
    b.skipTableFraction = args.optionDouble("brownout-skip-tables");
    return b;
}

/** Lower bound on one numeric flag. */
struct FlagBound
{
    const char *flag;
    double minimum;
    bool exclusive; ///< the value must exceed @c minimum, not just reach it
};

/**
 * Every command checks every bound before dispatch, so an out-of-range
 * value exits 2 with a message instead of tripping an invariant inside
 * a model or generator. All defaults satisfy them.
 */
constexpr FlagBound kFlagBounds[] = {
    {"batch", 1, false},         {"iters", 1, false},
    {"items", 1, false},         {"workers", 1, false},
    {"nodes", 1, false},         {"rows", 1, false},
    {"rows-cap", 1, false},      {"cluster-replicas", 1, false},
    {"degrade-batch", 0, false}, {"chaos-events", 0, false},
    {"zipf", 0, true},           {"rate", 0, true},
    {"sla-ms", 0, true},
};

/** First violated entry of kFlagBounds as a message, or "". */
std::string
checkFlagBounds(ArgParser &args)
{
    for (const FlagBound &bound : kFlagBounds) {
        double value = args.optionDouble(bound.flag);
        if (bound.exclusive ? value > bound.minimum
                            : value >= bound.minimum)
            continue;
        return strprintf("--%s must be %s %g (got %s)", bound.flag,
                         bound.exclusive ? ">" : ">=", bound.minimum,
                         args.option(bound.flag).c_str());
    }
    return "";
}

/**
 * Rejects nonsensical serve/shard configurations (impossible
 * retry/hedge combinations, bad replica counts, knobs the command
 * ignores) with a clear message; the caller exits with code 2.
 */
std::string
validateServingArgs(ArgParser &args, const std::string &command)
{
    std::string err = faultsFromArgs(args).validate();
    if (!err.empty())
        return err;
    err = validateDeadlineSeconds(args.optionDouble("deadline-ms") / 1e3);
    if (!err.empty())
        return err;
    if (args.optionDouble("mtbf-ms") > 0.0 &&
        args.optionDouble("mttr-ms") <= 0.0) {
        return strprintf("--mttr-ms must be positive when --mtbf-ms "
                         "enables shard failures (got %g)",
                         args.optionDouble("mttr-ms"));
    }
    err = obs::validateRequestLogArgs(
        static_cast<int>(args.optionInt("request-log-k")),
        args.optionDouble("request-log-window-ms") / 1e3,
        !args.option("request-log-out").empty() ||
            !args.option("exemplars-out").empty(),
        args.explicitlySet("request-log-k"),
        args.explicitlySet("request-log-window-ms"));
    if (!err.empty())
        return err;

    if (command == "serve") {
        AdmissionOptions admission;
        admission.enabled = args.flag("admission");
        admission.maxWaitFraction = args.optionDouble("admit-wait");
        if (!(err = validateAdmissionOptions(admission)).empty())
            return err;
        DegradeOptions degrade;
        degrade.enabled = args.optionInt("degrade-batch") > 0;
        degrade.degradedMaxBatch = args.optionInt("degrade-batch");
        degrade.backlogFactor = args.optionDouble("backlog-factor");
        degrade.lowPriorityFraction = args.optionDouble("low-priority");
        if (!(err = validateDegradeOptions(degrade)).empty())
            return err;
        BrownoutOptions brownout = brownoutFromArgs(args);
        if (!brownout.enabled) {
            static const char *const kBrownoutKnobs[] = {
                "brownout-enter", "brownout-growth", "brownout-exit",
                "brownout-dwell-ms", "brownout-truncate",
                "brownout-skip-tables"};
            for (const char *knob : kBrownoutKnobs) {
                if (args.explicitlySet(knob)) {
                    return strprintf("--%s has no effect without "
                                     "--brownout", knob);
                }
            }
        }
        if (!(err = brownout.validate()).empty())
            return err;
        // The corruption channel and the SDC defense ladder run in the
        // sharded loop only; reject them up front like --brownout on
        // shard rather than silently ignoring the knobs.
        static const char *const kSdcKnobs[] = {
            "corrupt-rate", "corrupt-zipf", "corrupt-multi-bit",
            "corrupt-stuck-row", "corrupt-fc", "scrub-interval-ms",
            "integrity-sample", "integrity-canary-ms", "repair-rtt-us",
            "repair-gbps", "drain-density", "fault-log-out"};
        for (const char *knob : kSdcKnobs) {
            if (args.explicitlySet(knob)) {
                return strprintf("--%s applies to shard only (the SDC "
                                 "defense runs in the sharded loop)",
                                 knob);
            }
        }
        if (args.flag("integrity-guards"))
            return "--integrity-guards applies to shard only (the SDC "
                   "defense runs in the sharded loop)";
        if (args.explicitlySet("corrupt-events"))
            return "--corrupt-events applies to eval only (functional "
                   "bit flips against real tables)";
        int64_t cluster = args.optionInt("cluster-replicas");
        int64_t healthy = args.optionInt("healthy-replicas");
        if (healthy < 0 || healthy > cluster)
            return strprintf("--healthy-replicas must be in [0, "
                             "--cluster-replicas=%lld] (got %lld; 0 "
                             "means all healthy)",
                             static_cast<long long>(cluster),
                             static_cast<long long>(healthy));
    }

    if (command == "shard") {
        if (args.flag("brownout"))
            return "--brownout applies to serve only (shard degrades "
                   "via --deadline-ms, retries, and hedges)";
        RetryPolicy retry = retryFromArgs(args);
        if (!(err = validateRetryPolicy(retry)).empty())
            return err;
        if (!(err = validateHedgePolicy(hedgeFromArgs(args), retry))
                 .empty())
            return err;
        // Retries that could never fire are a configuration mistake,
        // but only when the user actually asked for them.
        if (args.explicitlySet("retries") && retry.maxRetries > 0 &&
            retry.timeoutSeconds <= 0.0 &&
            args.optionDouble("mtbf-ms") <= 0.0) {
            return "--retries can never trigger with a zero "
                   "--timeout-ms and no shard failures (--mtbf-ms 0); "
                   "set a timeout, enable failures, or use --retries 0";
        }
        std::string replica_err;
        ReplicaOptions replicas = replicasFromArgs(args, &replica_err);
        if (!replica_err.empty())
            return replica_err;
        if (!(err = replicas.validate()).empty())
            return err;
        if (args.optionDouble("chaos-ms") <= 0.0 &&
            args.optionInt("chaos-events") > 0) {
            return strprintf("--chaos-ms must be positive when chaos "
                             "windows are scripted (got %g)",
                             args.optionDouble("chaos-ms"));
        }
        if (args.explicitlySet("corrupt-events"))
            return "--corrupt-events applies to eval only (functional "
                   "bit flips against real tables)";
        // Sub-knobs of the corruption channel do nothing without an
        // event rate, mirroring the brownout-knob convention.
        if (args.optionDouble("corrupt-rate") <= 0.0) {
            static const char *const kCorruptKnobs[] = {
                "corrupt-zipf", "corrupt-multi-bit",
                "corrupt-stuck-row", "corrupt-fc"};
            for (const char *knob : kCorruptKnobs) {
                if (args.explicitlySet(knob)) {
                    return strprintf("--%s has no effect without "
                                     "--corrupt-rate", knob);
                }
            }
        }
        // 0 is the "off" default; an explicit rate must be usable.
        double sample = args.optionDouble("integrity-sample");
        if (args.explicitlySet("integrity-sample") &&
            (sample <= 0.0 || sample > 1.0)) {
            return strprintf("--integrity-sample must be in (0, 1] "
                             "(got %g)", sample);
        }
        if (!(err = sdcFromArgs(args).validate()).empty())
            return err;
    }
    return "";
}

/**
 * Observability plumbing shared by time/serve/shard/eval: --trace-out
 * enables the tracer for the run, --counters / --timeseries-out turn
 * on the hardware-model telemetry (and its virtual-time sampler), and
 * --metrics-out writes the drained registry as JSON (plus a summary
 * table on stdout).
 */
void
obsBegin(ArgParser &args)
{
    obs::MetricsRegistry::global().reset();
    if (!args.option("trace-out").empty()) {
        obs::Tracer::global().clear();
        obs::Tracer::global().setEnabled(true);
    }
    bool want_timeseries = !args.option("timeseries-out").empty();
    if (args.flag("counters") || want_timeseries) {
        obs::HwTelemetry::global().reset();
        obs::HwTelemetry::global().setEnabled(true);
    }
    if (want_timeseries) {
        obs::TimeSeriesOptions topts;
        topts.intervalSeconds =
            args.optionDouble("timeseries-interval-ms") / 1e3;
        obs::TimeSeriesSampler::global().configure(topts);
        obs::TimeSeriesSampler::global().setEnabled(true);
    }
    if (!args.option("request-log-out").empty() ||
        !args.option("exemplars-out").empty()) {
        obs::RequestLogOptions ropts;
        ropts.slowestK =
            static_cast<int>(args.optionInt("request-log-k"));
        ropts.windowSeconds =
            args.optionDouble("request-log-window-ms") / 1e3;
        obs::RequestLogger::global().configure(ropts);
        obs::RequestLogger::global().setEnabled(true);
    }
}

void
obsEnd(ArgParser &args)
{
    // Export telemetry into the registry before the snapshot so the
    // metrics file carries the final counter values (check_trace.py
    // cross-checks the trace's counter tracks against them). Kernel
    // counters follow the same rule: trace tracks first (while the
    // tracer is still enabled), then the matching metrics export.
    KernelCache &kcache = KernelCache::global();
    kcache.emitTraceCounters(obs::Tracer::global());
    kcache.exportMetrics(obs::MetricsRegistry::global());
    obs::HwTelemetry &telem = obs::HwTelemetry::global();
    if (telem.enabled())
        telem.exportTo(obs::MetricsRegistry::global());
    obs::TimeSeriesSampler &sampler = obs::TimeSeriesSampler::global();
    if (sampler.enabled()) {
        sampler.exportTo(obs::MetricsRegistry::global());
        const std::string &ts_path = args.option("timeseries-out");
        if (!ts_path.empty() && sampler.writeFile(ts_path)) {
            std::printf("  timeseries:    wrote %s (%zu samples)\n",
                        ts_path.c_str(), sampler.size());
        }
    }
    obs::RequestLogger &rlog = obs::RequestLogger::global();
    if (rlog.enabled()) {
        // Export before the metrics snapshot so the tail.blame.*
        // gauges land in --metrics-out; a run without logging never
        // calls exportTo, keeping its metric set byte-identical.
        rlog.exportTo(obs::MetricsRegistry::global());
        const std::string &rl_path = args.option("request-log-out");
        if (!rl_path.empty() && rlog.writeFile(rl_path)) {
            std::printf("  request log:   wrote %s (%zu records)\n",
                        rl_path.c_str(), rlog.size());
        }
        const std::string &ex_path = args.option("exemplars-out");
        if (!ex_path.empty() && rlog.writeExemplars(ex_path)) {
            std::printf("  exemplars:     wrote %s\n", ex_path.c_str());
        }
    }
    telem.setEnabled(false);
    sampler.setEnabled(false);
    rlog.setEnabled(false);

    obs::Tracer &tracer = obs::Tracer::global();
    const std::string &trace_path = args.option("trace-out");
    if (!trace_path.empty()) {
        tracer.setEnabled(false);
        if (tracer.writeFile(trace_path)) {
            std::printf("  trace:         wrote %s (%zu events)\n",
                        trace_path.c_str(), tracer.snapshot().size());
        }
    }
    const std::string &metrics_path = args.option("metrics-out");
    if (metrics_path.empty())
        return;
    obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
    std::string json = snap.toJson();
    std::FILE *f = std::fopen(metrics_path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "warning: cannot write %s\n",
                     metrics_path.c_str());
    } else {
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
        std::printf("  metrics:       wrote %s\n", metrics_path.c_str());
    }
    std::printf("metrics summary:\n%s", snap.table().c_str());
}

int
cmdServe(ArgParser &args)
{
    obsBegin(args);
    ModelConfig cfg = modelByName(args.option("model"));
    MachineSpec machine = machineByName(args.option("machine"));
    ServerOptions sopts;
    sopts.numWorkers = static_cast<uint32_t>(args.optionInt("workers"));
    sopts.maxBatch = args.optionInt("batch");
    sopts.slaSeconds = args.optionDouble("sla-ms") / 1e3;
    sopts.admission.enabled = args.flag("admission");
    sopts.admission.maxWaitFraction = args.optionDouble("admit-wait");
    sopts.degrade.enabled = args.optionInt("degrade-batch") > 0;
    sopts.degrade.degradedMaxBatch = args.optionInt("degrade-batch");
    sopts.degrade.backlogFactor = args.optionDouble("backlog-factor");
    sopts.degrade.lowPriorityFraction = args.optionDouble("low-priority");
    sopts.clusterReplicas =
        static_cast<uint32_t>(args.optionInt("cluster-replicas"));
    sopts.healthyReplicas =
        static_cast<uint32_t>(args.optionInt("healthy-replicas"));
    sopts.deadlineSeconds = args.optionDouble("deadline-ms") / 1e3;
    sopts.brownout = brownoutFromArgs(args);
    FaultOptions faults = faultsFromArgs(args);
    faults.shardMtbfSeconds = 0.0; // shard failures only apply to shard
    sopts.faults = faults;

    TimerOptions topts;
    topts.seed = static_cast<uint64_t>(args.optionInt("seed"));
    topts.backend = activeBackendConfig();
    Server server(machine, cfg, topts, sopts);
    ServingStats stats = server.runOpenLoop(
        args.optionDouble("rate"),
        static_cast<uint64_t>(args.optionInt("items")));

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
                args.optionDouble("rate"));
    if (sopts.deadlineSeconds > 0.0) {
        std::printf("  deadline:      %10.1f ms budget%s\n",
                    sopts.deadlineSeconds * 1e3,
                    sopts.brownout.enabled ? ", brownout ladder armed"
                                           : "");
    }
    stats.exportTo(obs::MetricsRegistry::global());
    std::fputs(ServingStats::summarize(
                   obs::MetricsRegistry::global().snapshot())
                   .c_str(),
               stdout);
    obsEnd(args);
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

/** Write the reproducibility fault log when --fault-log-out is set. */
void
writeFaultLog(ArgParser &args, const FaultLog &log)
{
    const std::string &path = args.option("fault-log-out");
    if (path.empty())
        return;
    log.writeFile(path);
    std::printf("  fault log:     wrote %s (%zu events)\n", path.c_str(),
                log.size());
}

int
cmdShard(ArgParser &args)
{
    obsBegin(args);
    ModelConfig cfg = modelByName(args.option("model"));
    MachineSpec machine = machineByName(args.option("machine"));
    TimerOptions topts;
    topts.batch = args.optionInt("batch");
    topts.seed = static_cast<uint64_t>(args.optionInt("seed"));
    topts.backend = activeBackendConfig();
    auto nodes = static_cast<uint32_t>(args.optionInt("nodes"));
    int iters = static_cast<int>(args.optionInt("iters"));

    FaultOptions faults = faultsFromArgs(args);
    RetryPolicy retry = retryFromArgs(args);
    HedgePolicy hedge = hedgeFromArgs(args);
    std::string replica_err;
    ReplicaOptions replicas = replicasFromArgs(args, &replica_err);
    RP_ASSERT(replica_err.empty(), "%s", replica_err.c_str());

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
    // Redundant with topts.backend for the CLI, but exercises the
    // run-level override every embedding client can use.
    ropts.backend = activeBackendConfig();
    ropts.faults = faults;
    ropts.retry = retry;
    ropts.hedge = hedge;
    ropts.deadlineSeconds = args.optionDouble("deadline-ms") / 1e3;
    if (ropts.deadlineSeconds > 0.0) {
        std::printf("  deadline:      %10.1f ms budget per inference\n",
                    ropts.deadlineSeconds * 1e3);
    }
    ropts.sdc = sdcFromArgs(args);
    FaultLog fault_log;
    if (!args.option("fault-log-out").empty())
        ropts.faultLog = &fault_log;
    if (faults.corruption.enabled() || ropts.sdc.anyDefense()) {
        std::printf("  sdc:           %.1f corruptions/s, scrub %.1f ms, "
                    "inline %.2f, guards %s, canary %.1f ms\n",
                    faults.corruption.ratePerSec,
                    ropts.sdc.scrubIntervalSeconds * 1e3,
                    ropts.sdc.inlineSampleRate,
                    ropts.sdc.outputGuards ? "on" : "off",
                    ropts.sdc.canaryIntervalSeconds * 1e3);
    }

    ChaosSchedule chaos;
    auto chaos_events =
        static_cast<uint32_t>(args.optionInt("chaos-events"));
    if (replicas.replicas <= 1) {
        // Single-copy path: PR-1 mitigations only (a hedge assumes an
        // implicit spare replica). `ropts.replicas` stays disengaged.
        RunResult r = sim.run(ropts);
        printResilientResult(r);
        printSdcSummary(r);
        writeFaultLog(args, fault_log);
        r.exportTo(obs::MetricsRegistry::global());
        obsEnd(args);
        return 0;
    }

    ropts.replicas = replicas;
    if (chaos_events > 0) {
        // Horizon heuristic: virtual time advances by roughly one
        // per-inference latency per iteration; scale from the SLA-ish
        // chaos window length instead of pre-timing the model.
        double horizon = static_cast<double>(iters) *
            args.optionDouble("chaos-ms") / 1e3;
        chaos = ChaosSchedule::random(
            faults.seed, nodes, replicas.replicas, horizon, chaos_events,
            args.optionDouble("chaos-ms") / 1e3);
        ropts.chaos = &chaos;
    }

    RunResult r = sim.run(ropts);

    std::printf("  failover layer: %u replicas/shard, router %s, "
                "breaker %d errors -> open %.1f ms, warm-up %.2fx over "
                "%.1f ms%s\n", replicas.replicas,
                routerPolicyName(replicas.router),
                replicas.breaker.errorThreshold,
                replicas.breaker.openSeconds * 1e3, r.warmupFactorUsed,
                replicas.warmupSeconds * 1e3,
                chaos_events > 0
                    ? strprintf(", %u chaos windows", chaos_events)
                        .c_str()
                    : "");
    printResilientResult(r);
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
    printSdcSummary(r);
    writeFaultLog(args, fault_log);
    r.exportTo(obs::MetricsRegistry::global());
    obsEnd(args);
    return 0;
}

int
cmdEval(ArgParser &args)
{
    // Unlike `time` (the calibrated timing model), this executes the
    // real tensor graph on the thread pool and reports wall-clock
    // throughput — the honest hot path the execution engine serves.
    ModelConfig cfg =
        modelByName(args.option("model"))
            .functionalScale(args.optionInt("rows-cap"));
    int64_t batch = args.optionInt("batch");
    int iters = static_cast<int>(args.optionInt("iters"));
    Rng rng(static_cast<uint64_t>(args.optionInt("seed")));
    RecModel model(cfg, rng);
    ModelInput input = model.randomInput(batch, rng);

    // Functional integrity: shield the real tables with per-row
    // checksums, optionally flip seeded bits into them, and let the
    // inline SLS hook detect and repair whatever the fixed input
    // actually gathers. With --integrity-sample alone the output
    // checksum is bit-identical to an unshielded run.
    double sample = args.optionDouble("integrity-sample");
    int64_t flips = args.optionInt("corrupt-events");
    if (args.explicitlySet("integrity-sample") &&
        (sample <= 0.0 || sample > 1.0)) {
        std::fprintf(stderr, "error: --integrity-sample must be in "
                             "(0, 1] (got %g)\n", sample);
        return 2;
    }
    if (flips < 0) {
        std::fprintf(stderr, "error: --corrupt-events cannot be "
                             "negative (got %lld)\n",
                     static_cast<long long>(flips));
        return 2;
    }
    if (flips > 0 && sample <= 0.0) {
        std::fprintf(stderr, "error: --corrupt-events needs "
                             "--integrity-sample to detect and repair "
                             "the flips\n");
        return 2;
    }
    std::vector<std::unique_ptr<IntegrityShield>> shields;
    if (sample > 0.0) {
        IntegrityRuntime &integrity = IntegrityRuntime::global();
        integrity.configure(sample, /*repair_on_detect=*/true);
        std::vector<EmbeddingTable> &tables = model.tables();
        for (size_t t = 0; t < tables.size(); ++t) {
            shields.push_back(std::make_unique<IntegrityShield>(
                IntegrityShield::forTable(tables[t],
                                          strprintf("table%zu", t))));
            shields.back()->seal();
            integrity.attach(&tables[t], shields.back().get());
        }
        if (flips > 0) {
            Rng corrupt_rng(
                static_cast<uint64_t>(args.optionInt("fault-seed")) ^
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
        integrity.setEnabled(true);
    }

    for (int i = 0; i < 2; ++i)
        (void)model.forward(input); // warm-up
    obsBegin(args);
    obs::LatencyHistogram batch_hist =
        obs::MetricsRegistry::global().histogram("eval.batch_seconds");
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
    obs::MetricsRegistry::global()
        .gauge("eval.throughput_items_per_s")
        .set(static_cast<double>(batch) / secs);

    std::printf("eval %s (rows capped at %lld), batch %lld, "
                "%d threads:\n",
                cfg.name.c_str(),
                static_cast<long long>(args.optionInt("rows-cap")),
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
        IntegrityRuntime &integrity = IntegrityRuntime::global();
        integrity.exportTo(obs::MetricsRegistry::global());
        std::printf("  integrity:  %llu/%llu batches verified, %llu "
                    "corruptions detected, %llu rows repaired\n",
                    static_cast<unsigned long long>(
                        integrity.batchesVerified()),
                    static_cast<unsigned long long>(
                        integrity.batchesSeen()),
                    static_cast<unsigned long long>(
                        integrity.corruptionsDetected()),
                    static_cast<unsigned long long>(
                        integrity.rowsRepaired()));
        integrity.reset();
    }
    if (args.flag("dump-kernel-cache"))
        std::fputs(KernelCache::global().dumpTable().c_str(), stdout);
    obsEnd(args);
    return 0;
}

int
cmdTrace(ArgParser &args)
{
    TraceProfile profile{"cli", args.optionDouble("zipf"),
                         args.optionDouble("repeat"), 8192};
    Rng rng(static_cast<uint64_t>(args.optionInt("seed")));
    auto gen = makeGenerator(profile, args.optionInt("rows"),
                             rng.split());
    auto trace = gen->draw(
        static_cast<size_t>(args.optionInt("items")));
    std::printf("trace: zipf alpha %.2f, repeat prob %.2f over %lld "
                "rows\n", profile.zipfAlpha, profile.repeatProb,
                static_cast<long long>(args.optionInt("rows")));
    std::printf("  unique sparse IDs: %.1f%% of %zu draws\n",
                uniqueFraction(trace) * 100.0, trace.size());
    return 0;
}

/** Slurp a whole file; false (with a message in @p err) on failure. */
bool
readFile(const std::string &path, std::string *out, std::string *err)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        *err = strprintf("cannot read %s", path.c_str());
        return false;
    }
    out->clear();
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out->append(buf, n);
    std::fclose(f);
    return true;
}

int
cmdReport(ArgParser &args)
{
    obs::ReportInputs inputs;
    std::string err;
    const struct
    {
        const char *flag;
        std::string *dst;
    } sources[] = {{"metrics", &inputs.metricsJson},
                   {"trace", &inputs.traceJson},
                   {"timeseries", &inputs.timeseriesJsonl}};
    bool any = false;
    for (const auto &src : sources) {
        const std::string &path = args.option(src.flag);
        if (path.empty())
            continue;
        if (!readFile(path, src.dst, &err)) {
            std::fprintf(stderr, "error: %s\n", err.c_str());
            return 2;
        }
        any = true;
    }
    if (!any) {
        std::fprintf(stderr,
                     "error: report needs at least one artifact "
                     "(--metrics, --trace, and/or --timeseries)\n");
        return 2;
    }
    std::string report = obs::renderReport(inputs, err);
    if (report.empty()) {
        std::fprintf(stderr, "error: %s\n", err.c_str());
        return 1;
    }
    std::fputs(report.c_str(), stdout);
    return 0;
}

int
cmdExplain(ArgParser &args)
{
    obs::ExplainInputs inputs;
    std::string err;
    const std::string &log_path = args.option("request-log");
    if (log_path.empty()) {
        std::fprintf(stderr,
                     "error: explain needs --request-log FILE (a "
                     "serve/shard --request-log-out artifact); join a "
                     "--metrics export to cross-check the blame "
                     "gauges\n");
        return 2;
    }
    if (!readFile(log_path, &inputs.requestLogJsonl, &err)) {
        std::fprintf(stderr, "error: %s\n", err.c_str());
        return 2;
    }
    const std::string &metrics_path = args.option("metrics");
    if (!metrics_path.empty() &&
        !readFile(metrics_path, &inputs.metricsJson, &err)) {
        std::fprintf(stderr, "error: %s\n", err.c_str());
        return 2;
    }
    if (args.optionInt("top") < 1) {
        std::fprintf(stderr,
                     "error: --top must be >= 1 (got %lld)\n",
                     static_cast<long long>(args.optionInt("top")));
        return 2;
    }
    inputs.top = static_cast<int>(args.optionInt("top"));
    std::string view = obs::renderExplain(inputs, err);
    if (view.empty()) {
        std::fprintf(stderr, "error: %s\n", err.c_str());
        return 1;
    }
    std::fputs(view.c_str(), stdout);
    return 0;
}

int
cmdZoo()
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

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> raw(argv + 1, argv + argc);
    std::string command = raw.empty() ? "help" : raw.front();
    std::vector<std::string> rest(raw.begin() + (raw.empty() ? 0 : 1),
                                  raw.end());

    ArgParser args("recperf " + command,
                   "RecPerf experiment driver (HPCA'20 reproduction)");
    args.addOption("model", "rmc1", "model: rmc1|rmc2|rmc3|rmc3-dot|ncf");
    args.addOption("machine", "broadwell",
                   "machine: haswell|broadwell|skylake");
    args.addOption("batch", "16", "batch size / max serving batch");
    args.addOption("iters", "20", "measured iterations");
    args.addOption("max-tenants", "8", "co-location sweep upper bound");
    args.addOption("workers", "4", "serving workers");
    args.addOption("rate", "10000", "offered items/s (serve)");
    args.addOption("items", "20000", "items to simulate");
    args.addOption("sla-ms", "10", "SLA in milliseconds");
    args.addOption("zipf", "1.1", "trace popularity skew");
    args.addOption("repeat", "0.5", "trace re-reference probability");
    args.addOption("rows", "2000000", "embedding rows (trace)");
    args.addOption("seed", "42", "random seed");
    args.addOption("threads", "0",
                   "tensor-op worker threads (0 = RECPERF_THREADS or "
                   "hardware)");
    args.addOption("backend", "cpu",
                   "compute backend: cpu|nmp (overrides "
                   "RECPERF_BACKEND; nmp offloads SparseLengthsSum to "
                   "a near-memory engine)");
    args.addOption("isa", "auto",
                   "kernel ISA tier: scalar|avx2|avx512|auto "
                   "(overrides RECPERF_ISA; pinned tiers are "
                   "bit-deterministic; part of the backend spec)");
    args.addOption("nmp-ranks", "8",
                   "PIM-enabled memory ranks (nmp backend)");
    args.addOption("nmp-rank-gbps", "9.6",
                   "in-rank gather bandwidth per rank, GB/s (nmp)");
    args.addOption("nmp-row-ns", "50",
                   "per-row in-rank access latency, ns (nmp)");
    args.addOption("nmp-link-gbps", "12",
                   "host<->PIM link bandwidth, GB/s (nmp)");
    args.addOption("nmp-launch-us", "2",
                   "per-offloaded-op launch round trip, us (nmp)");
    args.addOption("nmp-placement", "auto",
                   "which tables offload: auto|all|none (nmp)");
    args.addOption("nmp-min-table-kb", "1024",
                   "auto placement: smaller tables stay on host (nmp)");
    args.addOption("nmp-host-llc-frac", "0.5",
                   "auto placement: tables within this fraction of "
                   "the LLC share stay on host (nmp)");
    args.addFlag("dump-kernel-cache",
                 "print the memoized kernel table after eval");
    args.addOption("rows-cap", "4096",
                   "embedding rows cap for eval's functional model");
    args.addOption("nodes", "4", "shard nodes (shard)");
    args.addOption("straggler-prob", "0", "straggler probability");
    args.addOption("straggler-alpha", "1.5", "straggler pareto shape");
    args.addOption("straggler-min", "2", "minimum straggler slowdown");
    args.addOption("mtbf-ms", "0", "shard mean time between failures");
    args.addOption("mttr-ms", "10", "shard mean time to repair");
    args.addOption("spike-rate", "0", "load spikes per second");
    args.addOption("spike-ms", "5", "load spike duration");
    args.addOption("spike-factor", "2", "slowdown during a spike");
    args.addOption("fault-seed", "2020", "failure-model seed");
    args.addOption("timeout-ms", "0", "per-shard timeout (0 = none)");
    args.addOption("retries", "2", "max retries per shard request");
    args.addFlag("hedge", "hedge slow shard requests to a replica");
    args.addOption("hedge-ms", "0", "hedge delay (0 = auto p95)");
    args.addOption("replicas", "1",
                   "replicas per shard (>= 2 enables failover)");
    args.addOption("router", "primary-first",
                   "replica router: primary-first|least-loaded|p2c");
    args.addOption("breaker-errors", "3",
                   "consecutive errors tripping a replica's breaker");
    args.addOption("breaker-open-ms", "0.5",
                   "breaker cooldown before half-open");
    args.addOption("breaker-probe", "0.7",
                   "half-open probe admission probability");
    args.addOption("breaker-close-probes", "2",
                   "probe successes that re-close a breaker");
    args.addOption("warmup-ms", "2",
                   "post-recovery warm-up window (cold caches)");
    args.addOption("warmup-factor", "0",
                   "post-recovery slowdown (0 = measured cold/steady)");
    args.addOption("chaos-events", "0",
                   "scripted chaos windows over the run (shard)");
    args.addOption("chaos-ms", "5", "mean chaos window duration");
    args.addOption("corrupt-rate", "0",
                   "memory-corruption events per second (shard; 0 = "
                   "off)");
    args.addOption("corrupt-zipf", "1.05",
                   "corruption row-targeting skew (0 = uniform)");
    args.addOption("corrupt-multi-bit", "0.2",
                   "fraction of corruptions flipping multiple bits");
    args.addOption("corrupt-stuck-row", "0.1",
                   "fraction of corruptions sticking a whole row at 1s");
    args.addOption("corrupt-fc", "0",
                   "fraction of corruptions hitting FC weights");
    args.addOption("scrub-interval-ms", "0",
                   "background checksum scrub full-sweep period (shard; "
                   "0 = off)");
    args.addOption("integrity-sample", "0",
                   "inline-verified fraction of lookup batches, (0, 1] "
                   "(shard|eval; 0 = off)");
    args.addFlag("integrity-guards",
                 "NaN/inf/range + checksum output guards at the "
                 "aggregation boundary (shard)");
    args.addOption("integrity-canary-ms", "0",
                   "canary-query period with golden outputs (shard; "
                   "0 = off)");
    args.addOption("repair-rtt-us", "200",
                   "parameter-store round trip per row re-fetch");
    args.addOption("repair-gbps", "1",
                   "parameter-store transfer bandwidth");
    args.addOption("drain-density", "0",
                   "corrupted-row density escalating a replica to "
                   "drain + rehydrate (0 = off)");
    args.addOption("fault-log-out", "",
                   "write every injected fault event as JSONL (shard)");
    args.addOption("corrupt-events", "0",
                   "seeded bit flips injected into eval's real tables "
                   "(eval; needs --integrity-sample)");
    args.addOption("cluster-replicas", "1",
                   "replicas backing the serving tier (serve)");
    args.addOption("healthy-replicas", "0",
                   "healthy replicas in the tier (0 = all)");
    args.addOption("trace-out", "",
                   "write a Chrome trace-event JSON of the run "
                   "(serve|shard|eval)");
    args.addOption("metrics-out", "",
                   "write the metrics registry as JSON and print the "
                   "summary table (serve|shard|eval)");
    args.addFlag("counters",
                 "collect hardware-model telemetry (FLOPs, bytes, "
                 "cache stats, roofline gauges)");
    args.addOption("timeseries-out", "",
                   "sample telemetry/SLO burn on a virtual-time "
                   "cadence and write JSONL (implies --counters)");
    args.addOption("timeseries-interval-ms", "10",
                   "virtual-time sampling cadence for "
                   "--timeseries-out");
    args.addOption("request-log-out", "",
                   "write one causal JSON record per request as JSONL "
                   "(serve|shard)");
    args.addOption("exemplars-out", "",
                   "write the slowest-k + per-decile exemplar records "
                   "as JSONL (serve|shard)");
    args.addOption("request-log-k", "4",
                   "slowest-k exemplar reservoir size "
                   "(--request-log-out)");
    args.addOption("request-log-window-ms", "0",
                   "slowest-k trailing window in virtual ms (0 = whole "
                   "run)");
    args.addOption("metrics", "",
                   "metrics JSON artifact to render (report|explain)");
    args.addOption("trace", "",
                   "trace JSON artifact to render (report)");
    args.addOption("timeseries", "",
                   "timeseries JSONL artifact to render (report)");
    args.addOption("request-log", "",
                   "request-log JSONL artifact to attribute (explain)");
    args.addOption("top", "4",
                   "slowest exemplar timelines to render (explain)");
    args.addFlag("admission", "shed items whose wait blows the SLA");
    args.addOption("admit-wait", "0.5", "sheddable wait as SLA fraction");
    args.addOption("degrade-batch", "0",
                   "degraded-mode batch cap (0 = off)");
    args.addOption("backlog-factor", "2",
                   "backlog (in max batches) triggering degraded mode");
    args.addOption("deadline-ms", "0",
                   "per-item deadline budget (serve|shard; 0 = off)");
    args.addFlag("brownout",
                 "enable the SLO-driven brownout ladder (serve)");
    args.addOption("brownout-enter", "4",
                   "short-window burn rate entering ladder level 1");
    args.addOption("brownout-growth", "2",
                   "entry-threshold growth per ladder level");
    args.addOption("brownout-exit", "0.5",
                   "de-escalate below this fraction of the entry "
                   "threshold (hysteresis)");
    args.addOption("brownout-dwell-ms", "20",
                   "minimum time between ladder transitions");
    args.addOption("brownout-truncate", "0.5",
                   "candidate-set fraction kept at level >= 1");
    args.addOption("brownout-skip-tables", "0.5",
                   "SLS work fraction skipped at level 2");
    args.addOption("low-priority", "0.2",
                   "fraction of items droppable when degraded");
    args.addFlag("help", "show this help");

    std::string error;
    if (!args.parse(rest, &error)) {
        std::fprintf(stderr, "error: %s\n%s", error.c_str(),
                     args.helpText().c_str());
        return 2;
    }
    if (command == "help" || args.flag("help")) {
        std::printf("usage: recperf <time|colocate|serve|shard|trace|"
                    "eval|report|explain|zoo> [options]\n\n%s",
                    args.helpText().c_str());
        return 0;
    }

    if (args.optionInt("threads") > 0)
        setGlobalThreadCount(static_cast<int>(args.optionInt("threads")));

    // Resolve the backend spec up front — backend family and kernel
    // ISA tier are one validated unit (flag > env > default for each
    // component) — and fail fast with exit 2, like every other
    // argument error, before any kernel runs. Both sources are
    // validated: a bad env var is an error even when an explicit flag
    // would override it.
    {
        std::string backend_name = args.option("backend");
        if (const char *env = std::getenv("RECPERF_BACKEND")) {
            if (!backendKindFromName(env, nullptr)) {
                std::fprintf(stderr,
                             "error: RECPERF_BACKEND: unknown backend "
                             "'%s' (expected cpu|nmp)\n", env);
                return 2;
            }
            if (!args.explicitlySet("backend"))
                backend_name = env;
        }
        std::string isa_name = args.option("isa");
        if (const char *env = std::getenv("RECPERF_ISA")) {
            IsaPolicy probe;
            std::string env_err = isaPolicyFromName(env, &probe);
            if (!env_err.empty()) {
                std::fprintf(stderr, "error: RECPERF_ISA: %s\n",
                             env_err.c_str());
                return 2;
            }
            if (!args.explicitlySet("isa"))
                isa_name = env;
        }
        BackendConfig backend;
        std::string err =
            backendConfigFromSpec(backend_name, isa_name, &backend);
        if (!err.empty()) {
            std::fprintf(stderr, "error: --backend/--isa: %s\n",
                         err.c_str());
            return 2;
        }

        // NMP knobs only make sense against the nmp backend; a knob on
        // a cpu run is a spec error, not something to silently ignore.
        static const char *kNmpKnobs[] = {
            "nmp-ranks", "nmp-rank-gbps", "nmp-row-ns", "nmp-link-gbps",
            "nmp-launch-us", "nmp-placement", "nmp-min-table-kb",
            "nmp-host-llc-frac"};
        if (backend.kind != BackendKind::Nmp) {
            for (const char *knob : kNmpKnobs) {
                if (args.explicitlySet(knob)) {
                    std::fprintf(stderr,
                                 "error: --%s requires --backend=nmp\n",
                                 knob);
                    return 2;
                }
            }
        } else {
            backend.nmp.ranks =
                static_cast<uint32_t>(args.optionInt("nmp-ranks"));
            backend.nmp.rankGBps = args.optionDouble("nmp-rank-gbps");
            backend.nmp.rowAccessNs = args.optionDouble("nmp-row-ns");
            backend.nmp.linkGBps = args.optionDouble("nmp-link-gbps");
            backend.nmp.launchUs = args.optionDouble("nmp-launch-us");
            backend.nmp.minTableBytes =
                static_cast<uint64_t>(
                    args.optionInt("nmp-min-table-kb")) * 1024;
            backend.nmp.hostLlcFraction =
                args.optionDouble("nmp-host-llc-frac");
            if (!nmpPlacementFromName(args.option("nmp-placement"),
                                      &backend.nmp.placement)) {
                std::fprintf(stderr,
                             "error: --nmp-placement: unknown policy "
                             "'%s' (expected auto|all|none)\n",
                             args.option("nmp-placement").c_str());
                return 2;
            }
            err = backend.nmp.validate();
            if (!err.empty()) {
                std::fprintf(stderr, "error: --backend=nmp: %s\n",
                             err.c_str());
                return 2;
            }
        }
        setActiveBackend(backend);
    }

    try {
        bool serving = command == "serve" || command == "shard";
        std::string invalid = checkFlagBounds(args);
        if (invalid.empty() && serving)
            invalid = validateServingArgs(args, command);
        if (!invalid.empty()) {
            std::fprintf(stderr, "error: %s\n", invalid.c_str());
            return 2;
        }
        if (!serving) {
            // The request log records the serving lanes only; on any
            // other command the knobs would silently do nothing.
            static const char *const kRlogKnobs[] = {
                "request-log-out", "exemplars-out", "request-log-k",
                "request-log-window-ms"};
            for (const char *knob : kRlogKnobs) {
                if (args.explicitlySet(knob)) {
                    std::fprintf(stderr,
                                 "error: --%s applies to serve and "
                                 "shard only (the request log records "
                                 "the serving lanes)\n", knob);
                    return 2;
                }
            }
        }
        if (command == "time")
            return cmdTime(args);
        if (command == "colocate")
            return cmdColocate(args);
        if (command == "serve")
            return cmdServe(args);
        if (command == "shard")
            return cmdShard(args);
        if (command == "trace")
            return cmdTrace(args);
        if (command == "eval")
            return cmdEval(args);
        if (command == "report")
            return cmdReport(args);
        if (command == "explain")
            return cmdExplain(args);
        if (command == "zoo")
            return cmdZoo();
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }

    std::fprintf(stderr, "unknown command '%s'; try: recperf help\n",
                 command.c_str());
    return 2;
}
