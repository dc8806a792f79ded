/**
 * @file
 * Sharded (distributed) recommendation inference.
 *
 * Section VII notes the open-source benchmark "can be used to analyze
 * scheduling decisions, such as running recommendation models across
 * many nodes (distributed inference)". The standard sharding for
 * embedding-dominated models is table-wise: each node holds a subset of
 * the embedding tables, executes its SparseLengthsSum share in
 * parallel, and ships the pooled vectors to an aggregator that runs the
 * interaction and Top-FC. Latency = slowest shard + network transfer +
 * aggregator compute.
 */

#ifndef RECPERF_SERVING_DISTRIBUTED_HH
#define RECPERF_SERVING_DISTRIBUTED_HH

#include <memory>
#include <vector>

#include "core/stats.hh"
#include "obs/metrics.hh"
#include "resilience/deadline.hh"
#include "resilience/fault_injector.hh"
#include "resilience/policies.hh"
#include "resilience/replica_set.hh"
#include "resilience/sdc.hh"
#include "timing/model_timer.hh"

namespace recperf {

namespace obs {
class RequestLogger;
class TimeSeriesSampler;
} // namespace obs

/** Data-center network between shard nodes and the aggregator. */
struct NetworkConfig
{
    double rttUs = 10.0;          ///< one round trip, kernel bypass
    double bandwidthGBps = 3.0;   ///< per-link (25 GbE-class)
};

/**
 * Configuration of one sharded closed-loop run — the single entry
 * point. The defaults describe a clean run: no faults, no hedging, one
 * copy per shard. Every shard sits behind a ReplicaSet of
 * `replicas.replicas` copies (R >= 1) with breakers, health routing
 * and warm-up; turning knobs composes: any FaultOptions activates the
 * fault schedule, R >= 2 gives the router a failover and hedge target,
 * and `chaos` layers scripted fault windows on top.
 */
struct RunOptions
{
    /**
     * Warm-up iterations before measurement, clamped to >= 2: the
     * first (cold) sample calibrates the post-recovery warm-up factor,
     * the rest calibrate the auto hedge delay (p95 of clean shard
     * times) and the fresh-attempt p50.
     */
    int warmupIters = 20;

    int measureIters = 100;

    /** Fault schedule of the replicas' failure processes. */
    FaultOptions faults;

    /** Timeout / retry / backoff mitigation. */
    RetryPolicy retry;

    /** Tail-latency hedging (delaySeconds == 0 auto-calibrates). */
    HedgePolicy hedge;

    /** Replication and routing of every shard (R >= 1). */
    ReplicaOptions replicas;

    /** Optional scripted chaos windows. */
    const ChaosSchedule *chaos = nullptr;

    /**
     * Per-inference deadline budget; 0 disables. With a budget, every
     * retry/hedge timeout is clamped to the remaining budget, attempts
     * fail fast (no retry) once the budget cannot cover the p50 of a
     * fresh attempt, replica routing skips copies whose EWMA latency
     * exceeds the budget, and an expired budget cancels the remaining
     * shard fan-out — counted as deadlineExpired, never as a late
     * completion.
     */
    double deadlineSeconds = 0.0;

    /**
     * The silent-data-corruption defense ladder (scrubbing, inline
     * sampled verification, output guards, canaries, quarantine and
     * repair). A controller is engaged when faults.corruption injects
     * events or any defense knob is on; at the defaults the serving
     * loop is byte-identical to a run without this subsystem.
     */
    SdcOptions sdc;

    /**
     * Optional reproducibility log: every drawn corruption event, node
     * up/down transition and load spike is appended as it happens.
     * Not owned; may be null.
     */
    FaultLog *faultLog = nullptr;

    /**
     * Optional sinks of the measured window, reset when it starts:
     * one causal record per inference and the virtual-time series.
     * Not owned; null means off.
     */
    obs::RequestLogger *requestLog = nullptr;
    obs::TimeSeriesSampler *timeSeries = nullptr;
};

/**
 * Everything one sharded run reports: the mitigation accounting
 * (timeouts, retries, hedging, deadlines), the replica routers'
 * failover/breaker/warm-up bookkeeping, and the mean latency breakdown
 * of completed inferences.
 */
struct RunResult
{
    /** End-to-end latency of each *completed* inference (seconds). */
    LatencySample latency;

    /** Inferences whose shards all answered (possibly after retries or
     *  via a hedge). */
    uint64_t completed = 0;

    /** Inferences abandoned after retry exhaustion on some shard. */
    uint64_t failed = 0;

    /** Inferences cancelled because the deadline budget expired
     *  mid-fan-out — counted as deadline-shed, never as late
     *  completions. */
    uint64_t deadlineExpired = 0;

    /** Attempts skipped outright because the remaining budget could
     *  not cover the p50 of a fresh attempt (fail fast, no retry). */
    uint64_t deadlineFastFails = 0;

    uint64_t hedgesIssued = 0;

    /** Hedges that beat (or rescued) the primary request. */
    uint64_t hedgeWins = 0;

    /** Re-sends after a timeout or a down shard. */
    uint64_t retries = 0;

    /** Attempts abandoned at the timeout. */
    uint64_t timeouts = 0;

    /** Attempts that hit a shard in its down window. */
    uint64_t shardDownEncounters = 0;

    /** Duplicated shard compute bought by hedging (seconds). */
    double hedgeExtraSeconds = 0.0;

    /** Duplicated pooled-vector traffic bought by hedging (bytes). */
    double hedgeExtraBytes = 0.0;

    /** Time burnt in timed-out and failed attempts (seconds). */
    double wastedSeconds = 0.0;

    /** Virtual wall-clock span of the measured loop (seconds). */
    double duration = 0.0;

    /** Requests completed by a replica other than the routed primary
     *  (down-rescue hedges and post-error re-routes). */
    uint64_t failovers = 0;

    /** Attempts for which every replica's breaker rejected the
     *  request. */
    uint64_t breakerRejects = 0;

    /** Breaker trips (closed/half-open -> open) across all replicas. */
    uint64_t breakerOpens = 0;

    /** Breaker recoveries (half-open -> closed) across all replicas. */
    uint64_t breakerCloses = 0;

    /** Requests admitted as half-open probes. */
    uint64_t probesAdmitted = 0;

    /** Routing decisions overridden because the primary replica's
     *  EWMA latency exceeded the remaining deadline budget (failover
     *  to the alternate, or abandonment when none fits). */
    uint64_t replicaSkips = 0;

    /** Extra service seconds paid to post-recovery cold replicas. */
    double warmupPenaltySeconds = 0.0;

    /** Resolved post-recovery multiplier (auto: cold/steady ratio). */
    double warmupFactorUsed = 1.0;

    /** Mean completed-inference latency (slowest + network + agg). */
    double totalSeconds = 0.0;

    /** Mean winning slowest-shard time over completed inferences. */
    double slowestShardSeconds = 0.0;

    /** Pooled-vector all-to-one transfer time per inference. */
    double networkSeconds = 0.0;

    /** Mean aggregator (interaction + MLP) time per inference. */
    double aggregatorSeconds = 0.0;

    /** Pooled-embedding bytes crossing the network per inference. */
    double networkBytes = 0.0;

    /** SDC defense accounting; active only when a controller ran. */
    SdcStats sdc;

    /** Fraction of inferences that completed (deadline-cancelled ones
     *  count against availability like failures). */
    double availability() const;

    /** Completed inferences per second of virtual wall-clock. */
    double goodput() const;

    /**
     * Export counters/latencies into @p registry under the `sharded.`
     * prefix. Like ServingStats::exportTo, called once per run.
     */
    void exportTo(obs::MetricsRegistry &registry) const;
};

/**
 * Times table-wise sharded inference of one model over N nodes of the
 * same machine type.
 */
class ShardedInference
{
  public:
    /**
     * @param num_nodes embedding shard nodes (>= 1). With one node the
     *        execution degenerates to the single-machine model (plus
     *        no network cost).
     */
    ShardedInference(const MachineSpec &machine, const ModelConfig &config,
                     uint32_t num_nodes, const NetworkConfig &network,
                     const TimerOptions &options);

    /**
     * Closed-loop run under @p options — the one entry point.
     *
     * Per inference, every shard request goes through that shard's
     * ReplicaSet. Its R replicas run independent failure processes
     * (process r of shard s is seeded stream s*R + r), and the set
     * routes each attempt by ReplicaOptions::router among replicas
     * whose circuit breaker admits the request. A down replica fails
     * fast and is retried (with exponential backoff) up to
     * RetryPolicy::maxRetries times; an attempt outliving the timeout
     * is abandoned and retried. When hedging is on, a duplicate goes
     * to the router's second-best replica after the hedge delay (and
     * rescues a down primary); at R = 1 there is no second copy, so
     * no hedge fires. Retry exhaustion on any shard fails the
     * inference — it never hangs.
     *
     * Errors and timeouts feed each replica's HealthTracker and
     * CircuitBreaker, so a dead replica is failed over after
     * `breaker.errorThreshold` strikes and probed back in once it
     * recovers — paying a cold-cache warm-up penalty derived from the
     * shard's own timing model. `options.chaos` layers scripted fault
     * windows (kills, rack failures, straggler storms) on top.
     *
     * Fully deterministic for fixed seeds. Throws FatalError, before
     * any measured inference, when the SDC canary interval is not
     * longer than the calibrated per-canary cost.
     */
    RunResult run(const RunOptions &options);

    uint32_t numNodes() const;

  private:
    struct ShardOutcome
    {
        double elapsed = 0.0;
        bool ok = false;
        /** Abandoned by the deadline, not by retry exhaustion. */
        bool cancelled = false;
        /** Replica that served the winning attempt. */
        uint32_t replica = 0;

        // Causal breakdown of `elapsed` for the request log. The
        // four duration fields plus serviceSeconds tile elapsed:
        // retryWait + hedgeWait + service + straggler + warmup.
        double serviceSeconds = 0.0;   ///< winning attempt's base time
        double stragglerSeconds = 0.0; ///< fault-multiplier excess
        double retryWaitSeconds = 0.0; ///< fail-fast/timeout/backoff
        double hedgeWaitSeconds = 0.0; ///< hedge delay on the winner
        double warmupSeconds = 0.0;    ///< cold-replica inflation
        bool hedgeWon = false;         ///< winner was the hedge
        bool deadlineClamped = false;  ///< budget bound a timeout
        double healthEwma = 0.0;       ///< winner's EWMA after success
    };

    /**
     * Resolve one shard of an inference. `deadline` is the inference's
     * budget, anchored at its issue time; `fresh_p50` is the calibrated
     * p50 of a fresh attempt, below which the remaining budget fails
     * fast.
     */
    ShardOutcome resolveReplicated(FaultInjector &injector,
                                   ReplicaSet &set,
                                   const RetryPolicy &retry,
                                   const HedgePolicy &hedge,
                                   double hedge_delay, uint32_t shard,
                                   double base_seconds, double now,
                                   const ChaosSchedule *chaos,
                                   const Deadline &deadline,
                                   double fresh_p50,
                                   const SdcController *sdc,
                                   RunResult *result);

    /** Pooled-vector bytes one shard ships per inference. */
    double shardNetworkBytes(uint32_t shard) const;

    /** Network cost of one inference (all-to-one pooled vectors). */
    double networkSeconds(double *bytes_out) const;

    MachineSpec machine_;
    ModelConfig config_;
    NetworkConfig network_;
    TimerOptions options_;
    /** One timer per shard, holding that node's table subset. */
    std::vector<std::unique_ptr<ModelTimer>> shard_timers_;
    /** Row counts of the tables each shard holds (round-robin deal). */
    std::vector<std::vector<int64_t>> shard_rows_;
    /** Timer for the aggregator: the full model, whose SLS share is
     *  subtracted to leave the dense work. */
    std::unique_ptr<ModelTimer> agg_timer_;
    /**
     * One inference's whole fan-out for ModelTimer::runAll: the shard
     * timers in shard order, then the aggregator. It times the full
     * model, so it is the heaviest and, listed last, starts first.
     */
    std::vector<ModelTimer *> fanout_;
};

} // namespace recperf

#endif // RECPERF_SERVING_DISTRIBUTED_HH
