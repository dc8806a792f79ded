#include "fwd.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "alloc_count.hh"
#include "core/rng.hh"
#include "core/thread_pool.hh"
#include "model/zoo.hh"
#include "ops/batch_matmul.hh"
#include "ops/elementwise.hh"
#include "ops/kernel_cache.hh"
#include "ops/reference.hh"
#include "stats.hh"
#include "timing/model_timer.hh"
#include "trace/id_generator.hh"
#include "workload.hh"

namespace perfbench {

using recperf::EmbeddingTable;
using recperf::FullyConnected;
using recperf::ModelConfig;
using recperf::ModelInput;
using recperf::RecModel;
using recperf::Tensor;

namespace {

/**
 * RMC2's embedding rows per table: 32 tables x 2^18 rows x 128 B is
 * 1 GiB, several times a server LLC, so gathers really leave the cache.
 */
constexpr int64_t kRmc2Rows = int64_t{1} << 18;

/** Forwards in each set-up's warm-up (first touch + kernel tuning). */
constexpr int kWarmupForwards = 3;

/** Forwards per thread count when measuring FC scaling. */
constexpr int kScalingForwards = 10;

double
ms(double seconds)
{
    return seconds * 1e3;
}

void
naiveRelu(Tensor &x)
{
    for (int64_t i = 0; i < x.size(); ++i)
        x.data()[i] = x.data()[i] > 0.0f ? x.data()[i] : 0.0f;
}

Tensor
naiveConcat(const std::vector<const Tensor *> &parts)
{
    int64_t rows = parts.front()->dim(0);
    int64_t cols = 0;
    for (const Tensor *p : parts)
        cols += p->dim(1);
    Tensor out({rows, cols});
    for (int64_t r = 0; r < rows; ++r) {
        int64_t c0 = 0;
        for (const Tensor *p : parts) {
            for (int64_t c = 0; c < p->dim(1); ++c)
                out.at(r, c0 + c) = p->at(r, c);
            c0 += p->dim(1);
        }
    }
    return out;
}

} // namespace

FwdWorkload
fwdWorkload(const std::string &name)
{
    FwdWorkload w;
    w.name = name;
    if (name == "fwd-rmc3") {
        w.config = recperf::rmc3Small().functionalScale();
        w.poolSize = 16;
    } else if (name == "fwd-rmc2") {
        w.config = recperf::rmc2Small().functionalScale(kRmc2Rows);
        w.poolSize = 64;
    } else {
        throw std::invalid_argument("unknown fwd workload " + name);
    }
    return w;
}

bool
isFwdWorkload(const std::string &name)
{
    return name == "fwd-rmc3" || name == "fwd-rmc2";
}

std::vector<ModelInput>
makeInputPool(const ModelConfig &config, int64_t batch, int count,
              uint64_t seed)
{
    recperf::Rng rng(mixSeed(seed, 1));
    const recperf::TimerOptions defaults;
    recperf::TraceProfile profile{"perfbench", defaults.zipfAlpha,
                                  defaults.repeatProb,
                                  defaults.repeatWindow};
    std::vector<std::unique_ptr<recperf::IdGenerator>> gens;
    for (int64_t t = 0; t < config.emb.numTables; ++t) {
        gens.push_back(recperf::makeGenerator(
            profile, config.emb.rowsOf(t), rng.split()));
    }
    const int64_t lookups = config.emb.lookupsPerTable;
    std::vector<ModelInput> pool(static_cast<size_t>(count));
    for (ModelInput &in : pool) {
        in.dense = Tensor({batch, config.denseFeatures});
        in.dense.fillUniform(rng, -1.0f, 1.0f);
        for (auto &gen : gens) {
            recperf::SparseInput sp;
            sp.lengths.assign(static_cast<size_t>(batch), lookups);
            sp.ids = gen->draw(static_cast<size_t>(batch * lookups));
            in.sparse.push_back(std::move(sp));
        }
    }
    return pool;
}

Tensor
decomposedForward(const RecModel &model, const ModelInput &input,
                  OpTimes *times, SpanLog *spans)
{
    const ModelConfig &cfg = model.config();
    const std::vector<FullyConnected> &bottom = model.bottomLayers();
    const std::vector<FullyConnected> &top = model.topLayers();
    const std::vector<EmbeddingTable> &tables = model.tables();
    OpTimes &t = *times;

    auto fc = [&](const FullyConnected &layer, const Tensor &x) {
        t.fcFlops += FullyConnected::cost(x.dim(0), layer.inFeatures(),
                                          layer.outFeatures())
                         .flops;
        ++t.fcCalls;
        ScopedSpan s(spans, "ops.fc", &t.fc);
        return layer.forward(x);
    };
    auto relu = [&](Tensor &x) {
        ScopedSpan s(spans, "ops.elementwise", &t.elementwise);
        recperf::reluInplace(x);
    };

    int64_t batch = 0;
    Tensor bottom_out;
    if (!bottom.empty()) {
        batch = input.dense.dim(0);
        bottom_out = input.dense.reshaped(input.dense.shape());
        for (const FullyConnected &layer : bottom) {
            bottom_out = fc(layer, bottom_out);
            relu(bottom_out);
        }
    }

    const int64_t num_tables = static_cast<int64_t>(input.sparse.size());
    if (batch == 0 && num_tables > 0)
        batch = static_cast<int64_t>(input.sparse[0].lengths.size());
    std::vector<Tensor> pooled(static_cast<size_t>(num_tables));
    auto lookup = [&](int64_t tbl) {
        const recperf::SparseInput &sp =
            input.sparse[static_cast<size_t>(tbl)];
        pooled[static_cast<size_t>(tbl)] =
            tables[static_cast<size_t>(tbl)].forward(sp.ids, sp.lengths);
    };
    {
        ScopedSpan s(spans, "ops.sls", &t.sls);
        if (num_tables >= recperf::globalThreadCount()) {
            recperf::parallelFor(0, num_tables, 1,
                                 [&](int64_t lo, int64_t hi) {
                                     for (int64_t tbl = lo; tbl < hi; ++tbl)
                                         lookup(tbl);
                                 });
        } else {
            for (int64_t tbl = 0; tbl < num_tables; ++tbl)
                lookup(tbl);
        }
    }
    for (int64_t tbl = 0; tbl < num_tables; ++tbl) {
        const recperf::SparseInput &sp =
            input.sparse[static_cast<size_t>(tbl)];
        t.slsBytes += static_cast<double>(sp.ids.size()) *
            static_cast<double>(tables[static_cast<size_t>(tbl)].dim()) *
            sizeof(float);
    }
    t.slsCalls += static_cast<int>(num_tables);

    std::vector<const Tensor *> features;
    if (!bottom.empty())
        features.push_back(&bottom_out);
    for (const Tensor &p : pooled)
        features.push_back(&p);

    Tensor z;
    {
        ScopedSpan s(spans, "ops.interaction", &t.interaction);
        if (cfg.interaction == recperf::InteractionKind::Dot) {
            int64_t f = static_cast<int64_t>(features.size());
            Tensor stacked = recperf::concatCols(features).reshaped(
                {batch, f, cfg.emb.embDim});
            Tensor pairs = recperf::dotInteraction(stacked);
            z = bottom.empty() ? std::move(pairs)
                               : recperf::concatCols({&pairs, &bottom_out});
        } else {
            z = recperf::concatCols(features);
        }
    }

    for (size_t i = 0; i < top.size(); ++i) {
        z = fc(top[i], z);
        if (i + 1 < top.size())
            relu(z);
    }
    ScopedSpan s(spans, "ops.elementwise", &t.elementwise);
    return recperf::sigmoid(z);
}

Tensor
referenceForward(const RecModel &model, const ModelInput &input)
{
    namespace ref = recperf::reference;
    const ModelConfig &cfg = model.config();
    Tensor h = input.dense.reshaped(input.dense.shape());
    for (const FullyConnected &layer : model.bottomLayers()) {
        h = ref::fullyConnected(h, layer.weight(), layer.bias());
        naiveRelu(h);
    }
    std::vector<Tensor> pooled;
    for (size_t t = 0; t < input.sparse.size(); ++t) {
        pooled.push_back(ref::sparseLengthsSum(model.tables()[t].table(),
                                               input.sparse[t].ids,
                                               input.sparse[t].lengths));
    }
    std::vector<const Tensor *> features;
    if (!model.bottomLayers().empty())
        features.push_back(&h);
    for (const Tensor &p : pooled)
        features.push_back(&p);

    Tensor z;
    if (cfg.interaction == recperf::InteractionKind::Dot) {
        int64_t batch = features.front()->dim(0);
        int64_t f = static_cast<int64_t>(features.size());
        int64_t d = cfg.emb.embDim;
        Tensor stacked = naiveConcat(features).reshaped({batch, f, d});
        Tensor gram = ref::batchMatMulBt(stacked, stacked);
        Tensor pairs({batch, f * (f - 1) / 2});
        for (int64_t b = 0; b < batch; ++b) {
            int64_t idx = 0;
            for (int64_t i = 1; i < f; ++i) {
                for (int64_t j = 0; j < i; ++j)
                    pairs.at(b, idx++) = gram.data()[(b * f + i) * f + j];
            }
        }
        z = model.bottomLayers().empty() ? std::move(pairs)
                                         : naiveConcat({&pairs, &h});
    } else {
        z = naiveConcat(features);
    }
    const std::vector<FullyConnected> &top = model.topLayers();
    for (size_t i = 0; i < top.size(); ++i) {
        z = ref::fullyConnected(z, top[i].weight(), top[i].bias());
        if (i + 1 < top.size())
            naiveRelu(z);
    }
    for (int64_t i = 0; i < z.size(); ++i)
        z.data()[i] = static_cast<float>(
            1.0 / (1.0 + std::exp(-static_cast<double>(z.data()[i]))));
    return z;
}

bool
bitwiseEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
        (a.size() == 0 ||
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0);
}

Closeness
withinTolerance(const Tensor &got, const Tensor &want)
{
    Closeness c;
    if (got.shape() != want.shape())
        return c;
    c.ok = true;
    for (int64_t i = 0; i < got.size(); ++i) {
        double g = got.data()[i], w = want.data()[i];
        double diff = std::fabs(g - w);
        if (!(diff <= kRefAtol + kRefRtol * std::fabs(w)))
            c.ok = false;
        if (!(diff <= c.maxAbsDiff))
            c.maxAbsDiff = diff;
    }
    return c;
}

namespace {

/** A CTR output: [batch, 1], every value in (0, 1). */
bool
plausibleOutput(const Tensor &out, int64_t batch)
{
    if (out.rank() != 2 || out.dim(0) != batch || out.dim(1) != 1)
        return false;
    for (int64_t i = 0; i < out.size(); ++i) {
        if (!(out.data()[i] > 0.0f && out.data()[i] < 1.0f))
            return false;
    }
    return true;
}

/**
 * Checks each forward's output: the first output seen for a pool batch
 * must be a plausible CTR vector, and every later one must equal it bit
 * for bit.
 */
class OutputChecker
{
  public:
    OutputChecker(size_t pool, int64_t batch)
        : expected_(pool), batch_(batch)
    {
    }

    bool
    accept(size_t slot, const Tensor &out)
    {
        Tensor &want = expected_[slot];
        if (want.size() == 0) {
            if (!plausibleOutput(out, batch_))
                return false;
            want = out;
            return true;
        }
        return bitwiseEqual(out, want);
    }

  private:
    std::vector<Tensor> expected_;
    int64_t batch_;
};

struct GemmShape
{
    int64_t m, n, k;
};

/** The GEMM shapes one forward of @p w runs, bottom stack first. */
std::vector<GemmShape>
gemmShapes(const FwdWorkload &w)
{
    std::vector<GemmShape> shapes;
    int64_t in = w.config.denseFeatures;
    for (int64_t out : w.config.bottomMlp) {
        shapes.push_back({w.batch, out, in});
        in = out;
    }
    in = w.config.topInputDim();
    for (int64_t out : w.config.topMlp) {
        shapes.push_back({w.batch, out, in});
        in = out;
    }
    return shapes;
}

const recperf::KernelCache::SlsEntry &
slsEntry(const FwdWorkload &w)
{
    return recperf::KernelCache::global().sls(
        w.config.emb.embDim,
        recperf::poolingBucket(w.config.emb.lookupsPerTable), false);
}

/** Each memoized shape's tuned plan, as a JSON array of strings. */
std::string
planJson(const FwdWorkload &w)
{
    std::string out = "[";
    char buf[160];
    for (const GemmShape &g : gemmShapes(w)) {
        const recperf::GemmPlan &p =
            recperf::KernelCache::global().gemm(g.m, g.n, g.k).plan;
        std::snprintf(buf, sizeof buf,
                      "\"gemm m%lld n%lld k%lld: %s mc%lld nc%lld kc%lld "
                      "nr%d\", ",
                      static_cast<long long>(g.m),
                      static_cast<long long>(g.n),
                      static_cast<long long>(g.k),
                      recperf::kernelIsaName(p.isa),
                      static_cast<long long>(p.blk.mc),
                      static_cast<long long>(p.blk.nc),
                      static_cast<long long>(p.blk.kc), p.blk.nr);
        out += buf;
    }
    const recperf::KernelCache::SlsEntry &s = slsEntry(w);
    std::snprintf(buf, sizeof buf, "\"sls dim%lld pool%lld: %s unroll%d\"]",
                  static_cast<long long>(s.dim),
                  static_cast<long long>(s.pooling),
                  recperf::kernelIsaName(s.plan.isa), s.plan.unroll + 1);
    return out + buf;
}

/** Total tuning time of the memoized shapes of @p w, seconds. */
double
tuningSeconds(const FwdWorkload &w)
{
    double us = slsEntry(w).tuningUs;
    for (const GemmShape &g : gemmShapes(w))
        us += recperf::KernelCache::global().gemm(g.m, g.n, g.k).tuningUs;
    return us * 1e-6;
}

/** Median FC time of decomposed forwards at @p threads threads. */
double
fcSecondsAt(int threads, const RecModel &model,
            const std::vector<ModelInput> &pool)
{
    recperf::setGlobalThreadCount(threads);
    std::vector<double> fc;
    for (int i = 0; i < kScalingForwards; ++i) {
        OpTimes t;
        (void)decomposedForward(model, pool[static_cast<size_t>(i) %
                                            pool.size()],
                                &t);
        fc.push_back(t.fc);
    }
    return median(fc);
}

} // namespace

void
runFwd(const RunConfig &cfg, Report &report)
{
    const FwdWorkload w = fwdWorkload(cfg.workload);
    const int threads = workloadThreads();
    recperf::setGlobalThreadCount(threads);
    recperf::KernelCache &kernels = recperf::KernelCache::global();

    const std::vector<ModelInput> pool =
        makeInputPool(w.config, w.batch, w.poolSize, cfg.seed);
    const size_t pool_n = pool.size();

    // The timing model's latency for the same forward on the modeled
    // socket: sim_slowdown is the host's wall time per modeled second.
    recperf::TimerOptions topts;
    topts.batch = w.batch;
    topts.seed = cfg.seed;
    recperf::ModelTimer timer(recperf::broadwell(), w.config, topts);
    const double modeled_s = timer.steadyState(1, 3).totalSeconds();

    // Every session starts from a cold kernel cache, so each one tunes
    // as a fresh process would; the first kSetupRepeats also rebuild the
    // model and are timed as set-ups (construction, warm-up, tuning).
    std::unique_ptr<RecModel> model;
    std::vector<double> setups;
    std::vector<Session> sessions;
    std::vector<std::string> plans;
    std::vector<double> tuning_s, tunes, traced;
    std::vector<OpTimes> ops;
    AllocCounts alloc_total;
    uint64_t hits = 0;
    SpanLog spans;
    const double session_s = cfg.seconds / kSessions;
    for (int si = 0; si < kSessions; ++si) {
        kernels.clear();
        const Clock::time_point t0 = Clock::now();
        if (si < kSetupRepeats) {
            model.reset();
            recperf::Rng rng(mixSeed(cfg.seed, 2));
            model = std::make_unique<RecModel>(w.config, rng);
        }
        for (int i = 0; i < kWarmupForwards; ++i)
            (void)model->forward(pool[static_cast<size_t>(i) % pool_n]);
        if (si < kSetupRepeats)
            setups.push_back(secondsBetween(t0, Clock::now()));
        tunes.push_back(static_cast<double>(kernels.tuneCount()));
        tuning_s.push_back(tuningSeconds(w));
        plans.push_back(planJson(w));

        // Plans may differ in ISA tier between sessions, which changes
        // output bits, so expected outputs are per session.
        OutputChecker checker(pool_n, w.batch);
        Session &ses = sessions.emplace_back();
        ses.samples.reserve(1 << 14);
        const uint64_t hits0 = kernels.hitCount();
        const Clock::time_point start = Clock::now();
        size_t i = 0;
        for (; ses.elapsed < session_s || i < kMinCalls; ++i) {
            const size_t slot = i % pool_n;
            const ModelInput &in = pool[slot];
            bool ok = true;
            Tensor out;
            if (cfg.trace)
                setAllocCounting(true);
            const AllocCounts a0 = allocCounts();
            const Clock::time_point c0 = Clock::now();
            try {
                out = model->forward(in);
            } catch (const std::exception &) {
                ok = false;
            }
            const Clock::time_point c1 = Clock::now();
            if (cfg.trace) {
                setAllocCounting(false);
                const AllocCounts a1 = allocCounts();
                alloc_total.allocs += a1.allocs - a0.allocs;
                alloc_total.bytes += a1.bytes - a0.bytes;
            }
            ses.samples.push_back(secondsBetween(c0, c1));
            ok = ok && checker.accept(slot, out);
            if (cfg.trace) {
                OpTimes t;
                const size_t id = spans.open("model.forward");
                const Clock::time_point c2 = Clock::now();
                Tensor dec = decomposedForward(*model, in, &t, &spans);
                traced.push_back(secondsBetween(c2, Clock::now()));
                spans.close(id);
                ops.push_back(t);
                ok = ok && bitwiseEqual(dec, out);
            }
            report.failed += ok ? 0 : 1;
            ses.elapsed = secondsBetween(start, Clock::now());
        }
        ses.units = static_cast<double>(i * static_cast<size_t>(w.batch));
        report.attempted += i;
        hits += kernels.hitCount() - hits0;
    }

    // Correctness beyond the per-call checks: one batch decomposed into
    // op calls (bit for bit) and composed from the naive reference ops
    // (within tolerance).
    const ModelInput &probe = pool[cfg.seed % pool_n];
    const Tensor want = model->forward(probe);
    OpTimes unused;
    report.check(bitwiseEqual(decomposedForward(*model, probe, &unused),
                              want),
                 "decomposed forward equals RecModel::forward bitwise");
    const Closeness close = withinTolerance(want,
                                            referenceForward(*model, probe));
    report.check(close.ok, "forward matches ops/reference within tolerance");
    report.check(report.failed == 0, "every timed forward passed its check");

    const SessionSummary sum = summarize(sessions);
    report.set("requests_per_s", sum.rate);
    report.set("latency_ms_p50", ms(sum.p50));
    report.set("latency_ms_tail", ms(sum.tail));
    report.set("setup_s", median(setups));
    report.set("peak_rss_mb", peakRssMib());
    report.set("sim_slowdown", sum.p50 / modeled_s);

    if (cfg.trace) {
        const size_t n = ops.size();
        std::vector<double> fc, sls, inter, elem, total;
        for (const OpTimes &t : ops) {
            fc.push_back(t.fc);
            sls.push_back(t.sls);
            inter.push_back(t.interaction);
            elem.push_back(t.elementwise);
            total.push_back(t.total());
        }
        const double fc_s = median(fc);
        const double sls_s = median(sls);
        report.set("ops.fc.ms", ms(fc_s));
        report.set("ops.fc.gflops", ops[0].fcFlops / fc_s * 1e-9);
        report.set("ops.fc.calls", ops[0].fcCalls);
        report.set("ops.sls.ms", ms(sls_s));
        report.set("ops.sls.gbps", ops[0].slsBytes / sls_s * 1e-9);
        report.set("ops.sls.calls", ops[0].slsCalls);
        report.set("ops.interaction.ms", ms(median(inter)));
        report.set("ops.elementwise.ms", ms(median(elem)));
        report.set("model.orchestration_ms", ms(sum.p50 - median(total)));
        report.set("model.allocs_per_forward",
                   static_cast<double>(alloc_total.allocs) /
                       static_cast<double>(n));
        report.set("model.alloc_mb_per_forward",
                   static_cast<double>(alloc_total.bytes) /
                       static_cast<double>(n) / (1024.0 * 1024.0));
        report.set("kernel_cache.tuning_s", median(tuning_s));
        report.set("kernel_cache.tunes", median(tunes));
        // Two forwards per call: RecModel::forward and the decomposed one.
        report.set("kernel_cache.hits",
                   static_cast<double>(hits) / static_cast<double>(2 * n));
        report.set("tracing.overhead_ms", ms(median(traced) - sum.p50));

        const double fc_1 = fcSecondsAt(1, *model, pool);
        const double fc_t = fcSecondsAt(threads, *model, pool);
        const double fc_all = fcSecondsAt(hostCpus(), *model, pool);
        recperf::setGlobalThreadCount(threads);
        report.set("ops.fc.parallel_speedup", fc_1 / fc_t);
        report.set("ops.fc.parallel_speedup_nproc", fc_1 / fc_all);
        if (!cfg.spansPath.empty())
            report.check(spans.writeChromeTrace(cfg.spansPath),
                         "span file written");
        report.note("spans", static_cast<double>(spans.size()));
    }

    report.note("threads", threads);
    report.note("sessions", kSessions);
    report.note("samples", static_cast<double>(sum.samples));
    report.note("session_p50_s", jsonArray(sum.sessionP50));
    report.note("tail_pct", sum.tailPct);
    report.note("tail_min_samples_beyond",
                static_cast<double>(sum.minBeyond));
    report.note("setup_s_each", jsonArray(setups));
    report.note("modeled_ms_per_forward", ms(modeled_s));
    report.note("reference_max_abs_diff", close.maxAbsDiff);
    report.noteString("reference_tolerance",
                      "atol " + jsonNumber(kRefAtol) + " + rtol " +
                          jsonNumber(kRefRtol));
    report.note("embedding_mib",
                static_cast<double>(w.config.embStorageBytes()) /
                    (1024.0 * 1024.0));
    std::string plan_list = "[";
    for (size_t i = 0; i < plans.size(); ++i)
        plan_list += (i ? ", " : "") + plans[i];
    report.note("plans", plan_list + "]");
}

} // namespace perfbench
