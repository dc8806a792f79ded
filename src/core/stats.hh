/**
 * @file
 * Statistics helpers: exact percentiles over retained samples.
 *
 * Used throughout the timing and serving layers to report latency
 * distributions (mean, p5, p50, p99) in the same form the paper does.
 */

#ifndef RECPERF_CORE_STATS_HH
#define RECPERF_CORE_STATS_HH

#include <cstddef>
#include <vector>

namespace recperf {

/**
 * Exact percentile over a sample vector using linear interpolation
 * between closest ranks (the same definition as numpy.percentile).
 *
 * @param samples sample values; need not be sorted (copied internally).
 * @param pct percentile in [0, 100].
 */
double percentile(std::vector<double> samples, double pct);

/**
 * Retains every sample and answers arbitrary percentile queries.
 * Suitable for the sample counts in this project (<= millions).
 */
class LatencySample
{
  public:
    void add(double x) { samples_.push_back(x); }
    void clear() { samples_.clear(); }
    size_t count() const { return samples_.size(); }
    bool empty() const { return samples_.empty(); }

    double mean() const;

    /** Percentile query; 0.0 on an empty sample (e.g. a run whose
     *  items were all shed), unlike the strict percentile(). */
    double p(double pct) const
    {
        return samples_.empty() ? 0.0 : percentile(samples_, pct);
    }

    double min() const;
    double max() const;

    const std::vector<double> &samples() const { return samples_; }

  private:
    std::vector<double> samples_;
};

} // namespace recperf

#endif // RECPERF_CORE_STATS_HH
