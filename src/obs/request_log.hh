/**
 * @file
 * Per-request causal records and tail-latency attribution.
 *
 * Aggregate telemetry (metrics, traces, burn-rate gauges) says *that*
 * the p99 blew past the SLO; it cannot say *which* requests paid it or
 * which mechanism charged them. This module carries one compact
 * RequestRecord per request through Server::runOpenLoop and
 * ShardedInference::run, logging phase durations in virtual time
 * (queue wait, clean service, straggler inflation, retries, hedges,
 * warm-up, scrub tax, network, aggregation) plus the cause tags that
 * explain them (admission estimate, replica chosen + health EWMA,
 * breaker rejects, hedge fired/won, retry count, brownout level,
 * deadline clamps, offload bytes).
 *
 * Invariants:
 *  - every record's phase durations tile its latency exactly (the
 *    phases are a decomposition of the span, not samples of it);
 *  - recording rides the deterministic virtual clocks, so with a fixed
 *    seed the log is bit-identical across host thread counts, like the
 *    virtual trace lanes;
 *  - a run records only when its caller hands it a logger (the
 *    serving loops test one pointer), and a run without one exports
 *    byte-identical everything else.
 *
 * On top of the raw log sit windowed slowest-k / per-decile exemplar
 * reservoirs, and a blame decomposition of the p99-p50 gap: over the
 * tail (served records slower than p50) each record contributes its
 * phase vector weighted by excess/latency, and the per-cause mass is
 * normalized into blame fractions that sum to 1 by construction.
 * `recperf explain` reconstructs all of this from the JSONL log alone.
 */

#ifndef RECPERF_OBS_REQUEST_LOG_HH
#define RECPERF_OBS_REQUEST_LOG_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hh"

namespace recperf {
namespace obs {

/** Causes a request's latency decomposes into (virtual seconds). */
enum class RequestPhase : uint8_t
{
    Queue = 0,      ///< arrival to batch dispatch (serve path)
    Service,        ///< clean compute time (no faults, no warm-up)
    Straggler,      ///< co-located service inflation (serve path)
    ShardStraggler, ///< slowest-shard excess over the fastest shard
    Retry,          ///< fail-fast waits, timeouts, backoff
    Hedge,          ///< hedge-delay waits on the critical path
    Warmup,         ///< cold-replica warm-up inflation
    Scrub,          ///< SDC scrub slowdown + inline-verify + guard tax
    Network,        ///< shard fan-out network hop
    Aggregate,      ///< top-FC aggregation after the merge
};

constexpr size_t kNumRequestPhases = 10;

/** Stable JSON name of a phase ("queue", "shard_straggler", ...). */
const char *requestPhaseName(RequestPhase phase);

/** How a request left the system. */
enum class RequestOutcome : uint8_t
{
    Served = 0,            ///< completed and delivered
    ShedAdmission,         ///< wait budget exceeded at admission
    ShedAdmissionDeadline, ///< deadline below the service estimate
    ShedDeadlineQueue,     ///< deadline expired while queued
    Cancelled,             ///< cancelled mid-flight past its deadline
    DroppedLowPriority,    ///< dropped by degraded mode
    Failed,                ///< retries exhausted (shard path)
};

constexpr size_t kNumRequestOutcomes = 7;

/** Stable JSON name of an outcome ("served", "cancelled", ...). */
const char *requestOutcomeName(RequestOutcome outcome);

/** Parse an outcome name; false when unknown. */
bool parseRequestOutcome(const std::string &name, RequestOutcome *out);

/**
 * One request's causal record. Plain data, no allocation: the serving
 * loops fill one on the stack and hand it to RequestLogger::record.
 */
struct RequestRecord
{
    uint64_t id = 0;        ///< arrival index within the run
    double arrival = 0.0;   ///< virtual arrival time (seconds)
    double start = 0.0;     ///< dispatch time (= arrival on shard path)
    double finish = 0.0;    ///< completion / abandonment time
    double latency = 0.0;   ///< finish - arrival; tiled by phase[]

    RequestOutcome outcome = RequestOutcome::Served;
    uint8_t brownoutLevel = 0;   ///< ladder level the item served at
    bool degraded = false;       ///< degraded-mode batch cap applied
    bool slaViolated = false;    ///< end-to-end SLA missed
    bool deadlineClamped = false;///< deadline bounded a shard timeout
    bool hedgeWon = false;       ///< a hedge beat the primary attempt

    uint16_t retries = 0;        ///< retry attempts across shards
    uint16_t hedges = 0;         ///< hedges fired across shards
    uint16_t hedgeWins = 0;      ///< hedges that won across shards
    int32_t replica = -1;        ///< replica serving the critical shard
    int32_t criticalShard = -1;  ///< slowest (latency-defining) shard
    uint32_t batchItems = 0;     ///< batch size the item rode in
    uint32_t breakerRejects = 0; ///< circuit-breaker fast-rejects

    float admissionEstimate = 0.0f; ///< service estimate at admission
    float healthEwma = 0.0f;        ///< critical replica's health EWMA
    double offloadBytes = 0.0;      ///< NMP link bytes moved

    double phase[kNumRequestPhases] = {};

    double &at(RequestPhase p) { return phase[static_cast<size_t>(p)]; }

    double phaseSum() const
    {
        double s = 0.0;
        for (size_t i = 0; i < kNumRequestPhases; ++i)
            s += phase[i];
        return s;
    }
};

/** Logger capacity and exemplar-reservoir configuration. */
struct RequestLogOptions
{
    /** Record capacity; later records drop (and count) beyond this. */
    size_t capacity = 1 << 20;

    /** Slowest-k exemplar reservoir size. */
    int slowestK = 4;

    /** Exemplars kept per latency decile. */
    int perDecile = 2;

    /**
     * Slowest-k window (virtual seconds before the last finish);
     * 0 means the whole run.
     */
    double windowSeconds = 0.0;
};

/** Blame decomposition of the p99-p50 gap over served records. */
struct TailAttribution
{
    uint64_t served = 0; ///< served records the quantiles are over
    double p50 = 0.0;    ///< median served latency (seconds)
    double p99 = 0.0;    ///< p99 served latency (seconds)
    double gap = 0.0;    ///< p99 - p50

    /** Excess-weighted virtual seconds charged to each cause. */
    double mass[kNumRequestPhases] = {};

    /** mass normalized to sum to 1 (all Service when no tail). */
    double blame[kNumRequestPhases] = {};

    /** Total excess-weighted mass across causes. */
    double excessMass = 0.0;
};

/**
 * Decompose the p99-p50 gap of @p records into per-cause blame.
 *
 * Only served records participate. Tail records are those with
 * latency > p50; each contributes phase[c] * (latency - p50) / latency
 * to cause c's mass, and blame is mass normalized across causes. When
 * there is no tail mass (uniform latencies, empty log) the whole blame
 * lands on Service so the fractions still sum to 1.
 */
TailAttribution attributeTail(const std::vector<RequestRecord> &records);

/**
 * One run's request log. The caller owns it and hands it to the run
 * (Server::runOpenLoop, RunOptions::requestLog); a logger that exists
 * records.
 */
class RequestLogger
{
  public:
    explicit RequestLogger(const RequestLogOptions &options = {})
    {
        configure(options);
    }
    RequestLogger(const RequestLogger &) = delete;
    RequestLogger &operator=(const RequestLogger &) = delete;

    /** Install options and clear all captured state. */
    void configure(const RequestLogOptions &options);

    /** Clear captured state; options survive. */
    void reset();

    /** Append one record (drops and counts beyond capacity). */
    void record(const RequestRecord &rec);

    /** Records currently buffered, in arrival order. */
    std::vector<RequestRecord> records() const;

    size_t size() const;

    /** Records offered since reset (including dropped ones). */
    uint64_t recorded() const;

    /** Records lost to the capacity cap. */
    uint64_t dropped() const;

    const RequestLogOptions &options() const { return options_; }

    /**
     * Slowest-k served records within the trailing window (latency
     * descending, id ascending on ties). Fewer than k when the window
     * holds fewer served records.
     */
    std::vector<RequestRecord> slowestExemplars() const;

    /**
     * Up to perDecile served records per latency decile (latency
     * ascending), so `recperf explain` can show a Fig 11-style
     * distribution from a handful of lines.
     */
    std::vector<RequestRecord> decileExemplars() const;

    /** Blame decomposition over the buffered records. */
    TailAttribution attribution() const;

    /** Full log: one JSON object per line, stable key order. */
    std::string toJsonl() const;

    /** Write toJsonl() to @p path; false (with a warning) on failure. */
    bool writeFile(const std::string &path) const;

    /** Slowest-k + decile exemplars as JSONL (deduplicated, id asc). */
    std::string exemplarsJsonl() const;

    /** Write exemplarsJsonl() to @p path. */
    bool writeExemplars(const std::string &path) const;

    /**
     * Publish tail.* metrics: requests recorded/dropped counters,
     * p50/p99/gap gauges, one tail.blame.<cause> gauge per cause with
     * nonzero mass, and the slowest exemplar latencies. The CLI calls
     * it only when the run had a logger, so runs without one export
     * byte-identical metric sets.
     */
    void exportTo(MetricsRegistry &registry) const;

  private:
    mutable std::mutex mu_;
    RequestLogOptions options_;
    std::vector<RequestRecord> records_;
    uint64_t recorded_ = 0;
    uint64_t dropped_ = 0;
};

/** One record as a single-line JSON object (stable key order). */
std::string requestRecordJson(const RequestRecord &rec);

/**
 * Parse a request-log JSONL back into records. Strict: every
 * non-empty line must be a JSON object carrying id / outcome /
 * arrival / start / finish / latency_s / phases with known phase and
 * outcome names, and an empty log is an error. Returns false and
 * fills @p error (with a line number) on the first violation.
 */
bool parseRequestLog(const std::string &jsonl,
                     std::vector<RequestRecord> *out, std::string *error);

/** Inputs to renderExplain; empty strings mean "artifact not given". */
struct ExplainInputs
{
    std::string requestLogJsonl; ///< --request-log contents (required)
    std::string metricsJson;     ///< optional --metrics join
    int top = 4;                 ///< exemplar timelines to render
};

/**
 * Render the `recperf explain` view from a request log alone: the
 * blame attribution table, the top-k slowest exemplar timelines, and
 * a per-decile tail decomposition. With a metrics export the exported
 * tail.blame.* gauges are cross-checked against the recomputed blame.
 * Returns "" and fills @p error on malformed input or a cross-check
 * mismatch.
 */
std::string renderExplain(const ExplainInputs &inputs, std::string &error);

/**
 * Validate request-log CLI knobs; returns "" when valid, else the
 * message the CLI prints before exiting 2. @p haveSink is whether
 * --request-log-out or --exemplars-out was given; @p kSet /
 * @p windowSet whether the tuning knobs were explicitly set.
 */
std::string validateRequestLogArgs(int slowestK, double windowSeconds,
                                   bool haveSink, bool kSet,
                                   bool windowSet);

} // namespace obs
} // namespace recperf

#endif // RECPERF_OBS_REQUEST_LOG_HH
