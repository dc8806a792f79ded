#include "timing/colocation.hh"

#include <algorithm>
#include <numeric>

#include "core/logging.hh"

namespace recperf {

double
ColocationResult::meanLatency() const
{
    if (latencySamples.empty())
        return 0.0;
    double sum = std::accumulate(latencySamples.begin(),
                                 latencySamples.end(), 0.0);
    return sum / static_cast<double>(latencySamples.size());
}

double
ColocationResult::throughput() const
{
    // Each tenant runs on its own core; aggregate rate is the sum of
    // per-tenant rates.
    double rate = 0.0;
    for (const ModelTiming &t : tenantAverages) {
        double lat = t.totalSeconds();
        if (lat > 0.0)
            rate += 1.0 / lat;
    }
    return rate;
}

double
ColocationResult::latencyBoundedThroughput(double sla_seconds,
                                           int64_t batch) const
{
    double rate = 0.0;
    for (const ModelTiming &t : tenantAverages) {
        double lat = t.totalSeconds();
        if (lat > 0.0 && lat <= sla_seconds)
            rate += static_cast<double>(batch) / lat;
    }
    return rate;
}

ModelTiming
ColocationResult::averageTiming() const
{
    ModelTiming avg;
    for (const ModelTiming &t : tenantAverages)
        avg.accumulate(t);
    if (!tenantAverages.empty())
        avg.scale(1.0 / static_cast<double>(tenantAverages.size()));
    return avg;
}

namespace {

std::vector<TenantSpec>
replicate(const ModelConfig &config, const TimerOptions &options,
          uint32_t num_tenants)
{
    RP_ASSERT(num_tenants >= 1, "need at least one tenant");
    std::vector<TenantSpec> tenants;
    for (uint32_t t = 0; t < num_tenants; ++t) {
        TimerOptions opts = options;
        opts.seed = options.seed + 0x1000ull * (t + 1);
        tenants.push_back({config, opts});
    }
    return tenants;
}

} // namespace

ColocationSim::ColocationSim(const MachineSpec &machine,
                             const ModelConfig &config,
                             const TimerOptions &options,
                             uint32_t num_tenants)
    : ColocationSim(machine, replicate(config, options, num_tenants))
{
}

ColocationSim::ColocationSim(const MachineSpec &machine,
                             const std::vector<TenantSpec> &tenants)
    : machine_(machine)
{
    RP_ASSERT(!tenants.empty(), "need at least one tenant");
    auto num_tenants = static_cast<uint32_t>(tenants.size());
    hyperthreading_ = num_tenants > machine.coresPerSocket;

    hier_ = machine_.makeHierarchy(num_tenants);

    for (uint32_t t = 0; t < num_tenants; ++t) {
        TimerOptions opts = tenants[t].options;
        opts.hyperthreading = hyperthreading_;
        auto timer = std::make_unique<ModelTimer>(machine_,
                                                  tenants[t].config, opts);
        timer->attach(hier_.get(), t, kTenantRegionBytes * (t + 1));
        timers_.push_back(std::move(timer));
    }
}

uint32_t
ColocationSim::numTenants() const
{
    return static_cast<uint32_t>(timers_.size());
}

void
ColocationSim::refreshContention(const std::vector<double> &dram_bytes)
{
    double total = std::accumulate(dram_bytes.begin(), dram_bytes.end(), 0.0);
    for (size_t t = 0; t < timers_.size(); ++t) {
        double others = total - dram_bytes[t];
        timers_[t]->setContention(numTenants(), others);
    }
}

ColocationResult
ColocationSim::run(int warmup_iters, int measure_iters)
{
    RP_ASSERT(measure_iters > 0, "need at least one measured iteration");
    const size_t n = timers_.size();

    // Two warm-up passes: the first fills the caches and yields a DRAM
    // pressure estimate; the second re-runs with contention applied so
    // the estimate (which itself raises FC DRAM traffic) converges.
    std::vector<double> dram_bytes(n, 0.0);
    for (int pass = 0; pass < 2; ++pass) {
        int iters = std::max(1, warmup_iters / 2);
        std::vector<double> observed(n, 0.0);
        for (int i = 0; i < iters; ++i) {
            for (size_t t = 0; t < n; ++t) {
                timers_[t]->run();
                observed[t] += timers_[t]->lastDramBytes();
            }
        }
        for (size_t t = 0; t < n; ++t)
            dram_bytes[t] = observed[t] / iters;
        refreshContention(dram_bytes);
    }

    ColocationResult result;
    std::vector<ModelTiming> sums(n);
    for (int i = 0; i < measure_iters; ++i) {
        for (size_t t = 0; t < n; ++t) {
            const ModelTiming &timing = timers_[t]->run();
            result.latencySamples.push_back(timing.totalSeconds());
            result.fcSamples.push_back(timing.secondsByKind(OpKind::FC));
            result.slsSamples.push_back(timing.secondsByKind(OpKind::SLS));
            sums[t].accumulate(timing);
        }
    }
    for (size_t t = 0; t < n; ++t) {
        sums[t].scale(1.0 / measure_iters);
        result.tenantAverages.push_back(std::move(sums[t]));
    }
    return result;
}

} // namespace recperf
