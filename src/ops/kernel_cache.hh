/**
 * @file
 * Shape-keyed kernel cache: one fixed plan per shape, memoized.
 *
 * The paper's Table I observation is that RMC inference spends its
 * compute in a handful of *recurring* GEMM (M,N,K) and SLS
 * (dim, pooling) shapes. This cache gives each shape, on first sight,
 * the fixed plan of the policy's ISA tier (scalar / AVX2 / AVX-512,
 * resolveTier): GemmBlocking{} for every GEMM and the one-vector-step
 * accumulate for every SLS. The plan is memoized in a LuaJIT-style
 * dispatch table, so steady-state dispatch is one acquire load on an
 * open-address slot; a first touch installs under a mutex.
 *
 * Determinism contract (DESIGN.md §14): every bit-affecting choice is
 * a function of the ISA tier alone (see microkernels.hh), and the tier
 * is a function of the policy and the host's CPUID alone. Outputs are
 * therefore bit-identical across thread counts and cache cold/warm
 * runs, and `auto` gives the same bits as pinning the tier it
 * resolves to.
 *
 * Each entry self-measures (relaxed atomic call/ns counters) and the
 * whole table exports through MetricsRegistry
 * (`kernel.<shape>.{variant,calls,ns_per_call}`) and as Chrome-trace
 * counter events for `recperf report` / check_trace.py.
 */

#ifndef RECPERF_OPS_KERNEL_CACHE_HH
#define RECPERF_OPS_KERNEL_CACHE_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "machine/simd.hh"
#include "ops/microkernels.hh"

namespace recperf {

namespace obs {
class MetricsRegistry;
class Tracer;
} // namespace obs

/**
 * Loop-tiling parameters (bit-neutral; see determinism contract). The
 * mc/nc defaults are every shape's task grid; the plan sets nr from the
 * tier's IsaKernels::gemmCols and kc from the shape. DESIGN.md §14
 * gives the measurements behind them.
 */
struct GemmBlocking
{
    int64_t mc = 64; ///< rows per task of the parallel (mc x nc) grid
    int64_t nc = 64; ///< B panel width (columns per task)
    /** Register-tile columns: always the tier's IsaKernels::gemmCols.
     *  Plan reports print it. */
    int nr = 1;
    /** K depth of the one pass each tile makes over a B row: always the
     *  shape's k (B is read in place). Plan reports print it. */
    int64_t kc = 0;
};

/** Memoized decision for one GEMM shape. */
struct GemmPlan
{
    KernelIsa isa = KernelIsa::Scalar;
    GemmBlocking blk;
    microkernels::GemmBlockFn fn = nullptr;
};

/** Memoized decision for one SLS shape. */
struct SlsPlan
{
    KernelIsa isa = KernelIsa::Scalar;
    int unroll = 0; ///< vector steps per loop trip, minus one (always 0)
    microkernels::SlsAccumFn fn = nullptr;
    microkernels::QslsAccumFn qfn = nullptr;
};

/**
 * One GEMM call C[i][j] (+)= dot(A row i, B row j) for row-major
 * A[m][k], B[n][k], cut into the (mc x nc) task grid of @p plan, with
 * @p epilogue (bias, ReLU) applied in each tile's store. Tasks are
 * numbered panel-major, so a run of consecutive tasks reads each B
 * panel (rows [n0, n0+nc) of B, in place) down the M tiles while it is
 * cache-hot. Every output element is computed by exactly one task with
 * the tier's fixed arithmetic, so tasks can run on any thread in any
 * order without changing a bit.
 */
struct GemmTaskGrid
{
    const float *a;
    const float *b;
    float *c;
    int64_t m, n, k;
    const GemmPlan &plan;
    bool accumulate;
    microkernels::GemmEpilogue epilogue;

    /** ceil(m / mc) * ceil(n / nc). */
    int64_t tasks() const;

    /** Run tasks [lo, hi) serially. */
    void run(int64_t lo, int64_t hi) const;
};

/** Nearest power of two (ties go up; 0 stays 0) — the SLS cache key
 *  buckets average pooling so jittered lengths share one entry. */
int64_t poolingBucket(int64_t pooling);

/** Best *compiled* tier at or below the policy's resolved tier: the
 *  tier of every plan the cache installs under @p policy. */
KernelIsa resolveTier(const IsaPolicy &policy);

class KernelCache
{
  public:
    /** Per-shape record: the fixed plan plus self-measurement. */
    struct GemmEntry
    {
        int64_t m = 0, n = 0, k = 0;
        GemmPlan plan;
        double tuningUs = 0.0; ///< always 0: no plan is searched for
        mutable std::atomic<uint64_t> calls{0};
        mutable std::atomic<uint64_t> ns{0};

        void
        recordCall(uint64_t elapsed_ns) const
        {
            calls.fetch_add(1, std::memory_order_relaxed);
            ns.fetch_add(elapsed_ns, std::memory_order_relaxed);
        }
    };

    struct SlsEntry
    {
        int64_t dim = 0, pooling = 0;
        bool quantized = false;
        SlsPlan plan;
        double tuningUs = 0.0; ///< always 0: no plan is searched for
        mutable std::atomic<uint64_t> calls{0};
        mutable std::atomic<uint64_t> ns{0};

        void
        recordCall(uint64_t elapsed_ns) const
        {
            calls.fetch_add(1, std::memory_order_relaxed);
            ns.fetch_add(elapsed_ns, std::memory_order_relaxed);
        }
    };

    /** Process-wide cache; initial policy comes from RECPERF_ISA. */
    static KernelCache &global();

    KernelCache();
    KernelCache(const KernelCache &) = delete;
    KernelCache &operator=(const KernelCache &) = delete;

    /**
     * Entry for GEMM shape (m, n, k); installs its plan on first sight. The
     * returned reference stays valid until clear()/setPolicy().
     */
    const GemmEntry &gemm(int64_t m, int64_t n, int64_t k);

    /** Entry for SLS shape (dim, pooling bucket, quantized?). */
    const SlsEntry &sls(int64_t dim, int64_t pooling, bool quantized);

    /**
     * Pin or un-pin the ISA tier. Clears the cache (existing plans may
     * reference the wrong tier). Not thread-safe against concurrent
     * kernel calls — quiesce first (CLI startup / test setup).
     */
    void setPolicy(const IsaPolicy &policy);
    IsaPolicy policy() const;

    /** Drop every entry and reset hit/install counters (not thread-safe
     *  against concurrent kernel calls). */
    void clear();

    /** Plans installed on first touch since construction/clear(). */
    uint64_t tuneCount() const;

    /** Steady-state dispatches that found a memoized entry. */
    uint64_t hitCount() const;

    /** Number of memoized entries. */
    size_t size() const;

    /** Human-readable table (shape -> variant, blocking, ns/call) —
     *  `recperf eval --dump-kernel-cache`. */
    std::string dumpTable() const;

    /**
     * Export `kernel.<shape>.*` and `kernel.cache.*` metrics plus
     * `hw.isa.{detected,selected}` gauges into @p reg.
     */
    void exportMetrics(obs::MetricsRegistry &reg) const;

    /**
     * Emit one Chrome-trace counter event per exported kernel counter
     * (cat "kernel", virtual lane @p tid) at the tracer's current wall
     * time, so check_trace.py can reconcile tracks against metrics.
     */
    void emitTraceCounters(obs::Tracer &tracer, uint32_t tid = 0) const;

  private:
    static constexpr size_t kSlots = 512;

    const GemmEntry *findGemm(uint64_t h, int64_t m, int64_t n,
                              int64_t k) const;
    const SlsEntry *findSls(uint64_t h, int64_t dim, int64_t pooling,
                            bool quantized) const;
    void insertGemm(uint64_t h, std::unique_ptr<GemmEntry> e);
    void insertSls(uint64_t h, std::unique_ptr<SlsEntry> e);

    std::array<std::atomic<GemmEntry *>, kSlots> gemm_slots_{};
    std::array<std::atomic<SlsEntry *>, kSlots> sls_slots_{};
    std::vector<std::unique_ptr<GemmEntry>> gemm_owned_;
    std::vector<std::unique_ptr<SlsEntry>> sls_owned_;
    mutable std::mutex mu_; ///< guards insertion + owned_
    IsaPolicy policy_;
    std::atomic<uint64_t> installs_{0};
    std::atomic<uint64_t> hits_{0};
};

} // namespace recperf

#endif // RECPERF_OPS_KERNEL_CACHE_HH
