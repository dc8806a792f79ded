#include "timing/model_timer.hh"

#include <algorithm>
#include <cmath>

#include "core/aligned.hh"
#include "core/logging.hh"
#include "core/thread_pool.hh"
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

    // One slot per op, in the order simulate() fills them; the names
    // are built here so a run formats nothing.
    auto op = [this](std::string name) {
        timing_.ops.emplace_back().name = std::move(name);
    };
    for (size_t i = 0; i < config_.bottomMlp.size(); ++i) {
        op(strprintf("Bottom-FC[%zu]", i));
        op(strprintf("ReLU-bottom[%zu]", i));
    }
    // A gather is named by where it ran: publish() picks the host name
    // or the near-memory engine's after each run.
    for (size_t tbl = 0; tbl < table_gens_.size(); ++tbl) {
        std::string host = strprintf("SparseLengthsSum[%zu]", tbl);
        sls_names_.push_back({host, "NMP-" + host});
        op(std::move(host));
        timing_.ops.back().name.reserve(sls_names_.back()[1].size());
    }
    op(config_.interaction == InteractionKind::Dot ? "BatchMatMul"
                                                   : "Concat");
    for (size_t i = 0; i < config_.topMlp.size(); ++i) {
        op(strprintf("Top-FC[%zu]", i));
        const char *act = i + 1 < config_.topMlp.size() ? "ReLU-top"
                                                        : "Sigmoid";
        op(strprintf("%s[%zu]", act, i));
    }
    row_addrs_.reserve(
        static_cast<size_t>(options_.batch * config_.emb.lookupsPerTable));
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
    row_addrs_.reserve(
        static_cast<size_t>(batch * config_.emb.lookupsPerTable));
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
    ctx.rowAddrs = &row_addrs_;
    return ctx;
}

OpTiming &
ModelTimer::freshOp(size_t i)
{
    OpTiming &op = timing_.ops[i];
    std::string name = std::move(op.name);
    op = OpTiming{};
    op.name = std::move(name);
    return op;
}

void
ModelTimer::simulate()
{
    // One context per inference: the hooks see exactly the state the
    // pre-backend member functions saw, in the same order.
    TimingContext ctx = makeContext();

    size_t op = 0;
    int64_t in = config_.denseFeatures;
    for (int64_t out : config_.bottomMlp) {
        backend_->timeFc(ctx, in, out, freshOp(op++));
        backend_->timeActivation(ctx, options_.batch * out, freshOp(op++));
        in = out;
    }

    for (size_t tbl = 0; tbl < table_gens_.size(); ++tbl)
        backend_->timeSls(ctx, tbl, freshOp(op++));

    if (config_.interaction == InteractionKind::Dot)
        backend_->timeBatchMM(ctx, freshOp(op++));
    else
        backend_->timeConcat(ctx, freshOp(op++));

    in = config_.topInputDim();
    for (int64_t out : config_.topMlp) {
        backend_->timeFc(ctx, in, out, freshOp(op++));
        backend_->timeActivation(ctx, options_.batch * out, freshOp(op++));
        in = out;
    }

    last_dram_bytes_ = static_cast<double>(timing_.dramLines()) *
        kCacheLineBytes;
}

void
ModelTimer::publish()
{
    // Only an offloaded gather crosses the host<->engine link. Both
    // names were built at construction and the slot reserved for the
    // longer one, so this never allocates.
    const size_t first_sls = 2 * config_.bottomMlp.size();
    for (size_t tbl = 0; tbl < sls_names_.size(); ++tbl) {
        OpTiming &op = timing_.ops[first_sls + tbl];
        op.name = sls_names_[tbl][op.transferBytes > 0 ? 1 : 0];
    }

    obs::HwTelemetry &telem = obs::HwTelemetry::global();
    if (telem.enabled()) {
        recordTelemetry(telem, machine_, timing_);
        telem.sampleHierarchy(*hier_);
    }
}

const ModelTiming &
ModelTimer::run()
{
    obs::HwTelemetry &telem = obs::HwTelemetry::global();
    if (telem.enabled()) {
        // Fold any pre-existing activity on this hierarchy into the
        // baseline so only this run's accesses land in the delta.
        telem.sampleHierarchy(*hier_);
    }
    simulate();
    publish();
    return timing_;
}

void
ModelTimer::runAll(const std::vector<ModelTimer *> &timers)
{
    obs::HwTelemetry &telem = obs::HwTelemetry::global();
    for (ModelTimer *timer : timers) {
        RP_ASSERT(timer->owned_hier_ != nullptr,
                  "runAll needs timers that own their hierarchy");
        if (telem.enabled())
            telem.sampleHierarchy(*timer->hier_);
    }
    parallelFor(0, static_cast<int64_t>(timers.size()), 1,
                [&timers](int64_t lo, int64_t hi) {
                    for (auto i = static_cast<size_t>(lo);
                         i < static_cast<size_t>(hi); ++i)
                        timers[timers.size() - 1 - i]->simulate();
                });
    // recordOp sums doubles: publish in list order, as a serial loop of
    // run() calls would.
    for (ModelTimer *timer : timers)
        timer->publish();
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
