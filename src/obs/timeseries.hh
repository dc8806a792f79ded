/**
 * @file
 * Fixed-cadence time-series sampling of metrics over *virtual* time.
 *
 * End-of-run aggregates (MetricsRegistry) answer "what happened
 * overall"; tail behaviour under load — burst absorption, failover
 * transients, SLO burn — needs the time dimension. The sampler
 * snapshots selected telemetry at a fixed virtual-time cadence while
 * Server::runOpenLoop / ShardedInference::run advance their simulated
 * clocks, into a bounded ring buffer exported as JSONL.
 *
 * Because samples are taken at deterministic virtual timestamps, the
 * series is bit-identical across host thread counts, like the virtual
 * trace lanes.
 *
 * The sampler also maintains SLO burn-rate gauges in the style of
 * multi-window error-budget alerting: the burn rate over a window is
 * (fraction of SLA-violating items in the window) / errorBudget, so a
 * burn rate of 1.0 means violations are arriving exactly at the rate
 * the SLO (e.g. p99 => 1% budget) allows, and >> 1 means the budget is
 * burning fast.
 *
 * A run samples only when its caller hands it a sampler; the serving
 * loops test one pointer.
 */

#ifndef RECPERF_OBS_TIMESERIES_HH
#define RECPERF_OBS_TIMESERIES_HH

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hh"

namespace recperf {
namespace obs {

class HwTelemetry;

/** Sampling cadence and window configuration. */
struct TimeSeriesOptions
{
    /** Virtual seconds between samples. */
    double intervalSeconds = 0.01;

    /** Ring-buffer capacity; oldest samples drop beyond this. */
    size_t capacity = 4096;

    /** Fast burn-rate window (virtual seconds). */
    double shortWindowSeconds = 1.0;

    /** Slow burn-rate window (virtual seconds). */
    double longWindowSeconds = 10.0;

    /** SLO error budget; 0.01 corresponds to a p99 latency SLO. */
    double errorBudget = 0.01;

    /** Telemetry source for hw.* fields; null means the global. */
    HwTelemetry *telemetry = nullptr;
};

/** One captured sample (cumulative values at virtual time t). */
struct TimeSeriesSample
{
    double t = 0.0;            ///< virtual timestamp (seconds)
    uint64_t items = 0;        ///< items observed so far
    uint64_t violations = 0;   ///< SLA violations so far
    double burnShort = 0.0;    ///< short-window burn rate
    double burnLong = 0.0;     ///< long-window burn rate
    double flops = 0.0;        ///< cumulative modeled FLOPs
    double bytesRead = 0.0;    ///< cumulative bytes read
    double bytesWritten = 0.0; ///< cumulative bytes written
    uint64_t dramLines = 0;    ///< cumulative DRAM lines
    double llcMpki = 0.0;      ///< running modeled LLC MPKI
};

/**
 * One run's virtual-time sampler. The caller owns it and hands it to
 * the run (Server::runOpenLoop, RunOptions::timeSeries); a sampler
 * that exists samples.
 */
class TimeSeriesSampler
{
  public:
    explicit TimeSeriesSampler(const TimeSeriesOptions &options = {})
    {
        configure(options);
    }
    TimeSeriesSampler(const TimeSeriesSampler &) = delete;
    TimeSeriesSampler &operator=(const TimeSeriesSampler &) = delete;

    /** Install options and clear all captured state. */
    void configure(const TimeSeriesOptions &options);

    /** Clear captured state; options survive. */
    void reset();

    /**
     * Advance the sample clock to virtual time @p now, capturing one
     * sample per elapsed interval. The first tick after reset()
     * captures immediately at @p now and anchors the cadence there.
     * If more intervals elapsed than the ring can hold, the excess
     * leading samples are skipped and counted as dropped.
     */
    void tick(double now);

    /**
     * Record one served item finishing at virtual time @p t with the
     * given end-to-end @p latencySeconds; @p violated marks an SLA
     * miss. Feeds the sliding burn-rate windows.
     */
    void observeItem(double t, double latencySeconds, bool violated);

    /**
     * Burn rate over the trailing @p windowSeconds at virtual time
     * @p now, computed from the items observed so far — the same value
     * tick() would capture. Lets controllers (the brownout ladder)
     * read the gauges at decision points between samples. Returns 0
     * for an empty window.
     */
    double burnRate(double now, double windowSeconds) const;

    /** Number of captured samples currently buffered. */
    size_t size() const;

    /** Samples captured since reset (including since-dropped ones). */
    uint64_t samplesTaken() const;

    /** Samples lost to ring overflow or tick fast-forward. */
    uint64_t samplesDropped() const;

    /** Copy of the buffered samples, oldest first. */
    std::vector<TimeSeriesSample> samples() const;

    /** One JSON object per line, stable key order. */
    std::string toJsonl() const;

    /** Write toJsonl() to @p path; false (with a warning) on failure. */
    bool writeFile(const std::string &path) const;

    /**
     * Publish summary metrics: slo.burn_rate_short / slo.burn_rate_long
     * / slo.error_budget_consumed gauges and timeseries.samples_taken /
     * timeseries.samples_dropped / slo.items / slo.violations counters.
     */
    void exportTo(MetricsRegistry &registry) const;

  private:
    struct Item
    {
        double t;
        bool violated;
    };

    TimeSeriesSample captureLocked(double t);
    double burnLocked(double now, double window) const;
    void pruneLocked(double now);

    mutable std::mutex mu_;
    TimeSeriesOptions options_;
    std::deque<TimeSeriesSample> ring_;
    std::deque<Item> window_;
    bool anchored_ = false;
    double next_sample_t_ = 0.0;
    uint64_t taken_ = 0;
    uint64_t dropped_ = 0;
    uint64_t items_total_ = 0;
    uint64_t violations_total_ = 0;
    double last_burn_short_ = 0.0;
    double last_burn_long_ = 0.0;
};

} // namespace obs
} // namespace recperf

#endif // RECPERF_OBS_TIMESERIES_HH
