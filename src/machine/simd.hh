/**
 * @file
 * SIMD throughput model for AVX-2 and AVX-512 fp32 GEMM kernels.
 *
 * Section V of the paper observes that wide-SIMD benefits only
 * materialize at larger batch sizes: packed AVX-512 instruction
 * throughput reaches 74% of theoretical at batch 4 and 91% at batch 16,
 * and despite its nominally 2x wider vectors Skylake only overtakes
 * Broadwell on compute-intensive models starting at batch ~64.
 *
 * We model the *achieved* fraction of peak FLOPs as a saturating
 * function of batch size, eff(b) = base * b / (b + k), with a larger k
 * for AVX-512 (wide vectors and 2-D register tiles are harder to fill
 * from small GEMM M-dimensions). The constants are calibrated so the
 * Broadwell/Skylake crossover lands near batch 64, matching Fig 8.
 */

#ifndef RECPERF_MACHINE_SIMD_HH
#define RECPERF_MACHINE_SIMD_HH

#include <cstdint>
#include <string>

namespace recperf {

/** Vector ISA generations present in the fleet (Table II). */
enum class SimdIsa
{
    AVX2,
    AVX512,
};

/** Display name, e.g. "AVX-512". */
const char *simdIsaName(SimdIsa isa);

/** fp32 lanes per vector register. */
int simdLanes(SimdIsa isa);

/**
 * Achieved-throughput model for one core executing fp32 GEMM.
 */
struct SimdModel
{
    SimdIsa isa = SimdIsa::AVX2;

    /**
     * Theoretical peak fp32 FLOPs per cycle per core (lanes x 2 for FMA
     * x issue ports). @p fma_ports is a machine-level calibration knob:
     * Broadwell and Skylake sustain 2 FMA issues/cycle; the paper's
     * Haswell parts sustain measurably less on these kernels.
     */
    double fmaPorts = 2.0;

    /** Fraction of peak achievable at asymptotic batch. */
    double baseEfficiency = 0.82;

    /** Batch half-saturation constant; larger = slower ramp. */
    double batchHalfSat = 2.0;

    /**
     * Lower bound on the saturation factor: even a batch-1 GEMV
     * vectorizes along the reduction dimension, so utilization never
     * collapses to b/(b+k) alone (low-batch FC stays memory-bound, as
     * observed in §V).
     */
    double minSaturation = 0.35;

    /** Theoretical peak fp32 FLOPs/cycle/core. */
    double peakFlopsPerCycle() const;

    /** Achieved fraction of peak at the given GEMM batch (M) size. */
    double efficiency(int64_t batch) const;

    /** Achieved fp32 FLOPs per cycle at the given batch. */
    double achievedFlopsPerCycle(int64_t batch) const;
};

/** Calibrated AVX-2 model (Broadwell-class). */
SimdModel makeAvx2Model(double fma_ports = 2.0);

/** Calibrated AVX-512 model (Skylake-class). */
SimdModel makeAvx512Model();

/**
 * Vector ISA tiers the *execution engine's* microkernels target (as
 * opposed to SimdIsa, which parameterizes the analytical timing model).
 * Ordered: a host that supports a tier supports every lower one.
 */
enum class KernelIsa
{
    Scalar = 0,
    Avx2 = 1,   ///< AVX2 + FMA (256-bit)
    Avx512 = 2, ///< AVX-512F (512-bit)
};

/** Stable lowercase name ("scalar" / "avx2" / "avx512"). */
const char *kernelIsaName(KernelIsa isa);

/**
 * Best vector tier the *host CPU* supports, probed once via CPUID
 * (cached after the first call). Non-x86 builds report Scalar.
 * Avx2 requires AVX2+FMA; Avx512 requires AVX-512F.
 */
KernelIsa detectIsa();

/**
 * How the kernel engine picks an ISA: either the best tier the host
 * supports ("auto", the default) or one pinned tier. Either way every
 * kernel runs on one tier, so results are bit-identical across thread
 * counts and cache cold/warm runs, and auto matches pinning its tier.
 */
struct IsaPolicy
{
    bool autoSelect = true;
    KernelIsa pinned = KernelIsa::Scalar; ///< used when !autoSelect

    /** Highest tier this policy permits on this host. */
    KernelIsa resolved() const
    {
        return autoSelect ? detectIsa() : pinned;
    }

    /** True when the policy allows dispatching to @p isa. */
    bool allows(KernelIsa isa) const
    {
        return autoSelect ? isa <= detectIsa() : isa == pinned;
    }
};

/**
 * Parse "scalar" / "avx2" / "avx512" / "auto" into @p out, validating
 * pinned tiers against detectIsa(). Returns "" on success, else a
 * human-readable error (unknown name, or the host lacks the tier) —
 * the CLI turns that into exit code 2 before any kernel runs.
 */
std::string isaPolicyFromName(const std::string &name, IsaPolicy *out);

} // namespace recperf

#endif // RECPERF_MACHINE_SIMD_HH
