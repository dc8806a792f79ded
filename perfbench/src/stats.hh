/**
 * @file
 * Exact sample statistics, metric naming, and the sim-output digest.
 *
 * Every latency the benchmark reports is computed here from the raw
 * steady_clock samples it took itself, never from a bucketed histogram.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/**
 * Percentile @p pct (0..100) by linear interpolation between order
 * statistics; sample k of n sorted values sits at 100 * k / (n - 1).
 * Returns 0 for an empty sample.
 */
double percentile(std::vector<double> samples, double pct);

/** percentile(samples, 50). */
double median(std::vector<double> samples);

/**
 * The highest percentile that still has at least @p min_beyond samples
 * strictly above it: sample n - 1 - min_beyond of the sorted values.
 * With too few samples (n <= min_beyond) it falls back to the maximum,
 * and beyond then reports fewer than @p min_beyond.
 */
struct Tail
{
    double value = 0.0;
    double pct = 0.0;  ///< percentile the value sits at
    size_t beyond = 0; ///< samples strictly above it
};
Tail tailPercentile(std::vector<double> samples, size_t min_beyond = 10);

/**
 * One timed session of a run: per-call wall times, the session's
 * elapsed time and the work units (items or inferences) it completed.
 */
struct Session
{
    std::vector<double> samples;
    double elapsed = 0.0;
    double units = 0.0;
};

/**
 * A run's timing: the median over its sessions of each session's p50,
 * tail (see tailPercentile) and throughput (units / elapsed). Sessions
 * are independent set-ups, so one unlucky one (a kernel-tuner flip, a
 * host stall) does not move the run's figures.
 */
struct SessionSummary
{
    double p50 = 0.0;
    double tail = 0.0;
    double tailPct = 0.0;   ///< median percentile of the session tails
    double rate = 0.0;      ///< units per second
    size_t samples = 0;     ///< calls timed over all sessions
    size_t minBeyond = 0;   ///< fewest samples beyond a session's tail
    std::vector<double> sessionP50; ///< each session's p50
};
SessionSummary summarize(const std::vector<Session> &sessions);

/** Letters, digits, '_', '.', '-'; starts with a letter or digit; <= 64. */
bool validMetricName(const std::string &name);

/** Letters, digits, '_', '/', '%', '.', '-'; 1..16 characters. */
bool validUnit(const std::string &unit);

/** FNV-1a over the exact bit patterns of simulated outputs. */
class Digest
{
  public:
    void add(uint64_t v);
    void add(double v);
    void add(const std::vector<double> &v);
    uint64_t value() const { return h_; }
    std::string hex() const;

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** Mix a seed with a stream index (splitmix64 finalizer). */
uint64_t mixSeed(uint64_t seed, uint64_t stream);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
