#include "timing/model_timer.hh"

#include <algorithm>
#include <cmath>

#include "core/aligned.hh"
#include "core/logging.hh"
#include "obs/hw_counters.hh"

namespace recperf {

ModelTimer::ModelTimer(const MachineSpec &machine, const ModelConfig &config,
                       const TimerOptions &options)
    : machine_(machine), config_(config), options_(options)
{
    config_.validate();
    RP_ASSERT(options_.batch > 0, "batch must be positive");

    Rng rng(options_.seed);
    for (int64_t t = 0; t < config_.emb.numTables; ++t) {
        TraceProfile profile{"timer", options_.zipfAlpha,
                             options_.repeatProb, options_.repeatWindow};
        table_gens_.push_back(
            makeGenerator(profile, config_.emb.rowsOf(t), rng.split()));
    }

    owned_hier_ = machine_.makeHierarchy(1);
    hier_ = owned_hier_.get();
    contention_rng_ = Rng(options_.seed ^ 0xc0ffee123ULL);
    backend_ = makeBackend(options_.backend);
}

void
ModelTimer::attach(CacheHierarchy *shared, uint32_t tenant,
                   uint64_t address_base)
{
    RP_ASSERT(shared != nullptr, "attach to null hierarchy");
    RP_ASSERT(tenant < shared->numCores(), "tenant %u out of %u slots",
              tenant, shared->numCores());
    hier_ = shared;
    tenant_ = tenant;
    address_base_ = address_base;
    owned_hier_.reset();
}

void
ModelTimer::setBatch(int64_t batch)
{
    RP_ASSERT(batch > 0, "batch must be positive");
    options_.batch = batch;
}

void
ModelTimer::setContention(uint32_t active_tenants,
                          double other_dram_bytes_per_inf)
{
    RP_ASSERT(active_tenants >= 1, "at least this tenant is active");
    active_tenants_ = active_tenants;
    other_dram_bytes_per_inf_ = other_dram_bytes_per_inf;
}

TimingContext
ModelTimer::makeContext()
{
    TimingContext ctx{machine_, config_};
    ctx.batch = options_.batch;
    ctx.hyperthreading = options_.hyperthreading;
    ctx.repeatWindow = options_.repeatWindow;
    ctx.hier = hier_;
    ctx.tenant = tenant_;
    ctx.addressBase = address_base_;
    ctx.activeTenants = active_tenants_;
    ctx.otherDramBytesPerInf = other_dram_bytes_per_inf_;
    ctx.lastDramBytes = last_dram_bytes_;
    ctx.contentionRng = &contention_rng_;
    ctx.tableGens = &table_gens_;
    return ctx;
}

ModelTiming
ModelTimer::run()
{
    ModelTiming timing;

    obs::HwTelemetry &telem = obs::HwTelemetry::global();
    if (telem.enabled()) {
        // Fold any pre-existing activity on this hierarchy into the
        // baseline so only this run's accesses land in the delta.
        telem.sampleHierarchy(*hier_);
    }

    // One context per inference: the hooks see exactly the state the
    // pre-backend member functions saw, in the same order.
    TimingContext ctx = makeContext();

    int64_t in = config_.denseFeatures;
    for (size_t i = 0; i < config_.bottomMlp.size(); ++i) {
        int64_t out = config_.bottomMlp[i];
        timing.ops.push_back(
            backend_->timeFc(ctx, strprintf("Bottom-FC[%zu]", i), in,
                             out));
        timing.ops.push_back(backend_->timeActivation(
            ctx, strprintf("ReLU-bottom[%zu]", i), options_.batch * out));
        in = out;
    }

    for (size_t tbl = 0; tbl < table_gens_.size(); ++tbl)
        timing.ops.push_back(backend_->timeSls(ctx, tbl));

    timing.ops.push_back(config_.interaction == InteractionKind::Dot
                             ? backend_->timeBatchMM(ctx)
                             : backend_->timeConcat(ctx));

    in = config_.topInputDim();
    for (size_t i = 0; i < config_.topMlp.size(); ++i) {
        int64_t out = config_.topMlp[i];
        timing.ops.push_back(
            backend_->timeFc(ctx, strprintf("Top-FC[%zu]", i), in, out));
        const char *act = i + 1 < config_.topMlp.size() ? "ReLU-top"
                                                        : "Sigmoid";
        timing.ops.push_back(backend_->timeActivation(
            ctx, strprintf("%s[%zu]", act, i), options_.batch * out));
        in = out;
    }

    last_dram_bytes_ = static_cast<double>(timing.dramLines()) *
        kCacheLineBytes;

    if (telem.enabled()) {
        recordTelemetry(telem, machine_, timing);
        telem.sampleHierarchy(*hier_);
    }
    return timing;
}

ModelTiming
ModelTimer::steadyState(int warmup_iters, int measure_iters)
{
    RP_ASSERT(measure_iters > 0, "need at least one measured iteration");
    for (int i = 0; i < warmup_iters; ++i)
        run();
    // Telemetry should describe steady state, not the warm-up ramp.
    obs::HwTelemetry &telem = obs::HwTelemetry::global();
    if (telem.enabled())
        telem.reset();
    ModelTiming avg;
    for (int i = 0; i < measure_iters; ++i)
        avg.accumulate(run());
    avg.scale(1.0 / measure_iters);
    return avg;
}

} // namespace recperf
