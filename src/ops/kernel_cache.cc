#include "ops/kernel_cache.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "core/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace recperf {

namespace {

uint64_t
mix64(uint64_t x)
{
    // splitmix64 finalizer — the usual full-avalanche mixer.
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

uint64_t
gemmHash(int64_t m, int64_t n, int64_t k)
{
    uint64_t h = mix64(static_cast<uint64_t>(m));
    h = mix64(h ^ static_cast<uint64_t>(n));
    return mix64(h ^ static_cast<uint64_t>(k));
}

uint64_t
slsHash(int64_t dim, int64_t pooling, bool quantized)
{
    uint64_t h = mix64(static_cast<uint64_t>(dim) |
                       (quantized ? 1ULL << 62 : 0));
    return mix64(h ^ static_cast<uint64_t>(pooling));
}

GemmPlan
fixedGemmPlan(KernelIsa isa, int64_t k)
{
    const microkernels::IsaKernels &kern = microkernels::kernelsFor(isa);
    GemmPlan p;
    p.isa = isa;
    p.blk.nr = kern.gemmCols;
    p.blk.kc = k;
    p.fn = kern.gemmBlock;
    return p;
}

SlsPlan
fixedSlsPlan(KernelIsa isa)
{
    const microkernels::IsaKernels &k = microkernels::kernelsFor(isa);
    SlsPlan p;
    p.isa = isa;
    p.fn = k.slsAccum;
    p.qfn = k.qslsAccum;
    return p;
}

} // namespace

int64_t
poolingBucket(int64_t pooling)
{
    if (pooling <= 0)
        return 0;
    int64_t lower = 1;
    while (lower * 2 <= pooling)
        lower *= 2;
    const int64_t upper = lower * 2;
    return (pooling - lower) < (upper - pooling) ? lower : upper;
}

KernelIsa
resolveTier(const IsaPolicy &policy)
{
    KernelIsa tier = policy.resolved();
    if (!policy.autoSelect) {
        RP_ASSERT(microkernels::kernelsFor(tier).available,
                  "ISA tier '%s' is pinned but was not compiled into "
                  "this binary",
                  kernelIsaName(tier));
        return tier;
    }
    while (tier > KernelIsa::Scalar &&
           !microkernels::kernelsFor(tier).available)
        tier = static_cast<KernelIsa>(static_cast<int>(tier) - 1);
    return tier;
}

int64_t
GemmTaskGrid::tasks() const
{
    const GemmBlocking &blk = plan.blk;
    return ((m + blk.mc - 1) / blk.mc) * ((n + blk.nc - 1) / blk.nc);
}

void
GemmTaskGrid::run(int64_t lo, int64_t hi) const
{
    const GemmBlocking &blk = plan.blk;
    const int64_t m_tiles = (m + blk.mc - 1) / blk.mc;
    for (int64_t t = lo; t < hi; ++t) {
        const int64_t n0 = (t / m_tiles) * blk.nc;
        const int64_t m0 = (t % m_tiles) * blk.mc;
        microkernels::GemmEpilogue ep = epilogue;
        if (ep.bias)
            ep.bias += n0;
        plan.fn(a + m0 * k, k, b + n0 * k, c + m0 * n + n0, n,
                std::min(blk.mc, m - m0), std::min(blk.nc, n - n0), k,
                accumulate, ep);
    }
}

KernelCache &
KernelCache::global()
{
    static KernelCache cache;
    return cache;
}

KernelCache::KernelCache()
{
    // CLI runs validate RECPERF_ISA up front (exit 2); library users
    // (tests, benches) get the same validation here, fatally.
    if (const char *env = std::getenv("RECPERF_ISA")) {
        const std::string err = isaPolicyFromName(env, &policy_);
        if (!err.empty())
            RP_FATAL("RECPERF_ISA: %s", err.c_str());
    }
}

const KernelCache::GemmEntry *
KernelCache::findGemm(uint64_t h, int64_t m, int64_t n, int64_t k) const
{
    for (size_t i = 0; i < kSlots; ++i) {
        const size_t idx = (h + i) & (kSlots - 1);
        const GemmEntry *e =
            gemm_slots_[idx].load(std::memory_order_acquire);
        if (e == nullptr)
            return nullptr;
        if (e->m == m && e->n == n && e->k == k)
            return e;
    }
    return nullptr;
}

const KernelCache::SlsEntry *
KernelCache::findSls(uint64_t h, int64_t dim, int64_t pooling,
                     bool quantized) const
{
    for (size_t i = 0; i < kSlots; ++i) {
        const size_t idx = (h + i) & (kSlots - 1);
        const SlsEntry *e = sls_slots_[idx].load(std::memory_order_acquire);
        if (e == nullptr)
            return nullptr;
        if (e->dim == dim && e->pooling == pooling &&
            e->quantized == quantized)
            return e;
    }
    return nullptr;
}

void
KernelCache::insertGemm(uint64_t h, std::unique_ptr<GemmEntry> e)
{
    for (size_t i = 0; i < kSlots; ++i) {
        const size_t idx = (h + i) & (kSlots - 1);
        if (gemm_slots_[idx].load(std::memory_order_relaxed) == nullptr) {
            gemm_slots_[idx].store(e.get(), std::memory_order_release);
            gemm_owned_.push_back(std::move(e));
            return;
        }
    }
    RP_FATAL("kernel cache full (%zu GEMM shapes)", kSlots);
}

void
KernelCache::insertSls(uint64_t h, std::unique_ptr<SlsEntry> e)
{
    for (size_t i = 0; i < kSlots; ++i) {
        const size_t idx = (h + i) & (kSlots - 1);
        if (sls_slots_[idx].load(std::memory_order_relaxed) == nullptr) {
            sls_slots_[idx].store(e.get(), std::memory_order_release);
            sls_owned_.push_back(std::move(e));
            return;
        }
    }
    RP_FATAL("kernel cache full (%zu SLS shapes)", kSlots);
}

const KernelCache::GemmEntry &
KernelCache::gemm(int64_t m, int64_t n, int64_t k)
{
    const uint64_t h = gemmHash(m, n, k);
    if (const GemmEntry *e = findGemm(h, m, n, k)) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return *e;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (const GemmEntry *e = findGemm(h, m, n, k)) {
        // Lost the first-touch race to another thread — still a hit.
        hits_.fetch_add(1, std::memory_order_relaxed);
        return *e;
    }
    auto e = std::make_unique<GemmEntry>();
    e->m = m;
    e->n = n;
    e->k = k;
    e->plan = fixedGemmPlan(resolveTier(policy_), k);
    installs_.fetch_add(1, std::memory_order_relaxed);
    const GemmEntry *raw = e.get();
    insertGemm(h, std::move(e));
    return *raw;
}

const KernelCache::SlsEntry &
KernelCache::sls(int64_t dim, int64_t pooling, bool quantized)
{
    const uint64_t h = slsHash(dim, pooling, quantized);
    if (const SlsEntry *e = findSls(h, dim, pooling, quantized)) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return *e;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (const SlsEntry *e = findSls(h, dim, pooling, quantized)) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return *e;
    }
    auto e = std::make_unique<SlsEntry>();
    e->dim = dim;
    e->pooling = pooling;
    e->quantized = quantized;
    e->plan = fixedSlsPlan(resolveTier(policy_));
    installs_.fetch_add(1, std::memory_order_relaxed);
    const SlsEntry *raw = e.get();
    insertSls(h, std::move(e));
    return *raw;
}

void
KernelCache::setPolicy(const IsaPolicy &policy)
{
    clear();
    std::lock_guard<std::mutex> lock(mu_);
    policy_ = policy;
}

IsaPolicy
KernelCache::policy() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return policy_;
}

void
KernelCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto &slot : gemm_slots_)
        slot.store(nullptr, std::memory_order_relaxed);
    for (auto &slot : sls_slots_)
        slot.store(nullptr, std::memory_order_relaxed);
    gemm_owned_.clear();
    sls_owned_.clear();
    installs_.store(0, std::memory_order_relaxed);
    hits_.store(0, std::memory_order_relaxed);
}

uint64_t
KernelCache::tuneCount() const
{
    return installs_.load(std::memory_order_relaxed);
}

uint64_t
KernelCache::hitCount() const
{
    return hits_.load(std::memory_order_relaxed);
}

size_t
KernelCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return gemm_owned_.size() + sls_owned_.size();
}

std::string
KernelCache::dumpTable() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::string out;
    char line[256];
    std::snprintf(line, sizeof line,
                  "kernel cache: %zu gemm + %zu sls entries "
                  "(detected %s, policy %s)\n",
                  gemm_owned_.size(), sls_owned_.size(),
                  kernelIsaName(detectIsa()),
                  policy_.autoSelect ? "auto"
                                     : kernelIsaName(policy_.pinned));
    out += line;
    for (const auto &e : gemm_owned_) {
        const uint64_t calls = e->calls.load(std::memory_order_relaxed);
        const uint64_t ns = e->ns.load(std::memory_order_relaxed);
        std::snprintf(
            line, sizeof line,
            "  gemm m%-5lld n%-5lld k%-5lld -> %-6s mc%-3lld nc%-3lld "
            "nr%d  %8llu calls  %10.0f ns/call\n",
            static_cast<long long>(e->m), static_cast<long long>(e->n),
            static_cast<long long>(e->k), kernelIsaName(e->plan.isa),
            static_cast<long long>(e->plan.blk.mc),
            static_cast<long long>(e->plan.blk.nc), e->plan.blk.nr,
            static_cast<unsigned long long>(calls),
            calls ? static_cast<double>(ns) / static_cast<double>(calls)
                  : 0.0);
        out += line;
    }
    for (const auto &e : sls_owned_) {
        const uint64_t calls = e->calls.load(std::memory_order_relaxed);
        const uint64_t ns = e->ns.load(std::memory_order_relaxed);
        std::snprintf(
            line, sizeof line,
            "  sls  d%-5lld pool%-4lld %s -> %-6s unroll%d  %8llu calls "
            " %10.0f ns/call\n",
            static_cast<long long>(e->dim),
            static_cast<long long>(e->pooling),
            e->quantized ? "q8" : "f32", kernelIsaName(e->plan.isa),
            e->plan.unroll + 1, static_cast<unsigned long long>(calls),
            calls ? static_cast<double>(ns) / static_cast<double>(calls)
                  : 0.0);
        out += line;
    }
    return out;
}

namespace {

std::string
gemmMetricBase(const KernelCache::GemmEntry &e)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "kernel.gemm.m%lldn%lldk%lld",
                  static_cast<long long>(e.m), static_cast<long long>(e.n),
                  static_cast<long long>(e.k));
    return buf;
}

std::string
slsMetricBase(const KernelCache::SlsEntry &e)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "kernel.sls.d%lldp%lld%s",
                  static_cast<long long>(e.dim),
                  static_cast<long long>(e.pooling),
                  e.quantized ? "q" : "");
    return buf;
}

} // namespace

void
KernelCache::exportMetrics(obs::MetricsRegistry &reg) const
{
    std::lock_guard<std::mutex> lock(mu_);
    reg.gauge("hw.isa.detected")
        .set(static_cast<double>(static_cast<int>(detectIsa())));
    reg.gauge("hw.isa.selected")
        .set(static_cast<double>(static_cast<int>(resolveTier(policy_))));
    reg.counter("kernel.cache.hits")
        .add(hits_.load(std::memory_order_relaxed));
    reg.counter("kernel.cache.tunes")
        .add(installs_.load(std::memory_order_relaxed));
    for (const auto &e : gemm_owned_) {
        const std::string base = gemmMetricBase(*e);
        const uint64_t calls = e->calls.load(std::memory_order_relaxed);
        const uint64_t ns = e->ns.load(std::memory_order_relaxed);
        reg.counter(base + ".calls").add(calls);
        reg.gauge(base + ".ns_per_call")
            .set(calls ? static_cast<double>(ns) /
                     static_cast<double>(calls)
                       : 0.0);
        reg.gauge(base + ".variant")
            .set(static_cast<double>(static_cast<int>(e->plan.isa)));
    }
    for (const auto &e : sls_owned_) {
        const std::string base = slsMetricBase(*e);
        const uint64_t calls = e->calls.load(std::memory_order_relaxed);
        const uint64_t ns = e->ns.load(std::memory_order_relaxed);
        reg.counter(base + ".calls").add(calls);
        reg.gauge(base + ".ns_per_call")
            .set(calls ? static_cast<double>(ns) /
                     static_cast<double>(calls)
                       : 0.0);
        reg.gauge(base + ".variant")
            .set(static_cast<double>(static_cast<int>(e->plan.isa)));
    }
}

void
KernelCache::emitTraceCounters(obs::Tracer &tracer, uint32_t tid) const
{
    if (!tracer.enabled())
        return;
    std::lock_guard<std::mutex> lock(mu_);
    const double t = tracer.wallSeconds();
    tracer.counter("kernel", "kernel.cache.hits", t, tid,
                   static_cast<double>(
                       hits_.load(std::memory_order_relaxed)));
    tracer.counter("kernel", "kernel.cache.tunes", t, tid,
                   static_cast<double>(
                       installs_.load(std::memory_order_relaxed)));
    for (const auto &e : gemm_owned_) {
        tracer.counter("kernel", gemmMetricBase(*e) + ".calls", t, tid,
                       static_cast<double>(
                           e->calls.load(std::memory_order_relaxed)));
    }
    for (const auto &e : sls_owned_) {
        tracer.counter("kernel", slsMetricBase(*e) + ".calls", t, tid,
                       static_cast<double>(
                           e->calls.load(std::memory_order_relaxed)));
    }
}

} // namespace recperf
