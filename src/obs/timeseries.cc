#include "obs/timeseries.hh"

#include <cmath>
#include <cstdio>
#include <fstream>

#include "obs/hw_counters.hh"
#include "obs/json.hh"

namespace recperf {
namespace obs {

void
TimeSeriesSampler::configure(const TimeSeriesOptions &options)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        options_ = options;
        if (options_.intervalSeconds <= 0.0)
            options_.intervalSeconds = 0.01;
        if (options_.capacity == 0)
            options_.capacity = 1;
    }
    reset();
}

void
TimeSeriesSampler::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    ring_.clear();
    window_.clear();
    anchored_ = false;
    next_sample_t_ = 0.0;
    taken_ = dropped_ = items_total_ = violations_total_ = 0;
    last_burn_short_ = last_burn_long_ = 0.0;
}

double
TimeSeriesSampler::burnLocked(double now, double window) const
{
    if (window <= 0.0 || options_.errorBudget <= 0.0)
        return 0.0;
    uint64_t items = 0, violations = 0;
    for (auto it = window_.rbegin(); it != window_.rend(); ++it) {
        if (it->t < now - window)
            break;
        ++items;
        if (it->violated)
            ++violations;
    }
    if (items == 0)
        return 0.0;
    double frac = static_cast<double>(violations)
                  / static_cast<double>(items);
    return frac / options_.errorBudget;
}

void
TimeSeriesSampler::pruneLocked(double now)
{
    double horizon = now - options_.longWindowSeconds;
    while (!window_.empty() && window_.front().t < horizon)
        window_.pop_front();
}

TimeSeriesSample
TimeSeriesSampler::captureLocked(double t)
{
    TimeSeriesSample s;
    s.t = t;
    s.items = items_total_;
    s.violations = violations_total_;
    s.burnShort = burnLocked(t, options_.shortWindowSeconds);
    s.burnLong = burnLocked(t, options_.longWindowSeconds);
    last_burn_short_ = s.burnShort;
    last_burn_long_ = s.burnLong;

    HwTelemetry &telem = options_.telemetry ? *options_.telemetry
                                            : HwTelemetry::global();
    HwTotals totals = telem.totals();
    s.flops = totals.flops;
    s.bytesRead = totals.bytesRead;
    s.bytesWritten = totals.bytesWritten;
    s.dramLines = totals.dramLines;
    s.llcMpki = totals.llcMpki();
    return s;
}

void
TimeSeriesSampler::tick(double now)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!anchored_) {
        anchored_ = true;
        next_sample_t_ = now;
    }
    if (now < next_sample_t_)
        return;

    double interval = options_.intervalSeconds;
    // Fast-forward when more intervals elapsed than the ring can hold;
    // the leading samples would be evicted immediately anyway.
    double pending =
        std::floor((now - next_sample_t_) / interval) + 1.0;
    if (pending > static_cast<double>(options_.capacity)) {
        uint64_t skip = static_cast<uint64_t>(
            pending - static_cast<double>(options_.capacity));
        next_sample_t_ += static_cast<double>(skip) * interval;
        dropped_ += skip;
    }

    while (next_sample_t_ <= now) {
        pruneLocked(next_sample_t_);
        ring_.push_back(captureLocked(next_sample_t_));
        ++taken_;
        if (ring_.size() > options_.capacity) {
            ring_.pop_front();
            ++dropped_;
        }
        next_sample_t_ += interval;
    }
}

void
TimeSeriesSampler::observeItem(double t, double latencySeconds,
                               bool violated)
{
    (void)latencySeconds;
    std::lock_guard<std::mutex> lock(mu_);
    ++items_total_;
    if (violated)
        ++violations_total_;
    window_.push_back({t, violated});
    pruneLocked(t);
}

double
TimeSeriesSampler::burnRate(double now, double windowSeconds) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return burnLocked(now, windowSeconds);
}

size_t
TimeSeriesSampler::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return ring_.size();
}

uint64_t
TimeSeriesSampler::samplesTaken() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return taken_;
}

uint64_t
TimeSeriesSampler::samplesDropped() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_;
}

std::vector<TimeSeriesSample>
TimeSeriesSampler::samples() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return {ring_.begin(), ring_.end()};
}

std::string
TimeSeriesSampler::toJsonl() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::string out;
    for (const TimeSeriesSample &s : ring_) {
        out += "{\"t_s\": " + jsonNumber(s.t);
        out += ", \"items\": " + std::to_string(s.items);
        out += ", \"violations\": " + std::to_string(s.violations);
        out += ", \"burn_short\": " + jsonNumber(s.burnShort);
        out += ", \"burn_long\": " + jsonNumber(s.burnLong);
        out += ", \"flops\": " + jsonNumber(s.flops);
        out += ", \"bytes_read\": " + jsonNumber(s.bytesRead);
        out += ", \"bytes_written\": " + jsonNumber(s.bytesWritten);
        out += ", \"dram_lines\": " + std::to_string(s.dramLines);
        out += ", \"llc_mpki\": " + jsonNumber(s.llcMpki);
        out += "}\n";
    }
    return out;
}

bool
TimeSeriesSampler::writeFile(const std::string &path) const
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "timeseries: cannot open %s for writing\n",
                     path.c_str());
        return false;
    }
    out << toJsonl();
    return static_cast<bool>(out);
}

void
TimeSeriesSampler::exportTo(MetricsRegistry &registry) const
{
    std::lock_guard<std::mutex> lock(mu_);
    registry.gauge("slo.burn_rate_short").set(last_burn_short_);
    registry.gauge("slo.burn_rate_long").set(last_burn_long_);
    double consumed = 0.0;
    if (items_total_ > 0 && options_.errorBudget > 0.0)
        consumed = (static_cast<double>(violations_total_)
                    / static_cast<double>(items_total_))
                   / options_.errorBudget;
    registry.gauge("slo.error_budget_consumed").set(consumed);
    registry.counter("timeseries.samples_taken").add(taken_);
    registry.counter("timeseries.samples_dropped").add(dropped_);
    registry.counter("slo.items").add(items_total_);
    registry.counter("slo.violations").add(violations_total_);
}

} // namespace obs
} // namespace recperf
