#include "core/stats.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/logging.hh"

namespace recperf {

double
percentile(std::vector<double> samples, double pct)
{
    RP_ASSERT(!samples.empty(), "percentile of empty sample set");
    RP_ASSERT(pct >= 0.0 && pct <= 100.0, "percentile %f out of [0,100]", pct);
    std::sort(samples.begin(), samples.end());
    if (samples.size() == 1)
        return samples.front();
    double rank = pct / 100.0 * static_cast<double>(samples.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(rank));
    size_t hi = static_cast<size_t>(std::ceil(rank));
    double frac = rank - static_cast<double>(lo);
    return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double
LatencySample::mean() const
{
    if (samples_.empty())
        return 0.0;
    double sum = std::accumulate(samples_.begin(), samples_.end(), 0.0);
    return sum / static_cast<double>(samples_.size());
}

double
LatencySample::min() const
{
    RP_ASSERT(!samples_.empty(), "min of empty sample set");
    return *std::min_element(samples_.begin(), samples_.end());
}

double
LatencySample::max() const
{
    RP_ASSERT(!samples_.empty(), "max of empty sample set");
    return *std::max_element(samples_.begin(), samples_.end());
}

} // namespace recperf
