/**
 * @file
 * Per-ISA GEMM / SparseLengthsSum microkernels.
 *
 * Each vector tier (scalar, AVX2+FMA, AVX-512F) lives in its own
 * translation unit compiled with per-file `-mavx2` / `-mavx512f`
 * flags, so one binary carries every variant and the kernel cache
 * picks the tier at runtime from CPUID (machine/simd.hh).
 *
 * Determinism contract (DESIGN.md §14): every ISA tier fixes ONE
 * accumulation pattern per output element — the number of independent
 * accumulator chains, their stride over K, the reduction tree, and the
 * scalar-tail handling never vary with the blocking parameters.
 * B is read in place: column j of a panel is row j of row-major
 * B[n][k], already contiguous, so each output's K walk is one pass over
 * two contiguous rows. MC x NC (the parallel task grid) and the tier's
 * fixed register tile (rows x columns) only re-tile *loops*, never
 * re-associate *arithmetic*, so within a
 * tier the results are bit-identical across thread counts, blockings,
 * and cache cold/warm runs. The tile store then
 * applies the epilogue in a fixed order: the finished sum (plus the old
 * C value when accumulating), then +bias, then ReLU.
 *
 * Fixed patterns:
 *  - scalar: 4 independent scalar chains, stride 4 (the seed
 *    `dotUnrolled` shape), merged (a0+a1)+(a2+a3), then a sequential
 *    scalar tail. No FMA (base x86-64 codegen cannot contract).
 *  - AVX2: 2 independent 8-lane FMA chains, stride 16, reduced with a
 *    fixed pairwise tree (256 -> 128 -> 64 -> 32), sequential tail.
 *  - AVX-512: 2 independent 16-lane FMA chains, stride 32, fixed
 *    512 -> 256 -> 128 -> 64 -> 32 tree, sequential tail.
 *
 * Float SLS accumulation is element-wise vertical adds, so vector
 * tiers are bit-identical to scalar. Quantized SLS fuses the
 * dequantize multiply-add into an FMA on vector tiers (one rounding
 * instead of two), hence the 1e-4 relative-tolerance contract there.
 */

#ifndef RECPERF_OPS_MICROKERNELS_HH
#define RECPERF_OPS_MICROKERNELS_HH

#include <algorithm>
#include <cstdint>

#include "machine/simd.hh"

namespace recperf {
namespace microkernels {

/**
 * What the GEMM tile store does to each output after its sum: add
 * bias[j] (when @p bias is set), then clamp with max(x, 0) (when
 * @p relu). max(x, 0.0f) returns x unless x < 0, so -0.0 and NaN pass
 * through unchanged.
 */
struct GemmEpilogue
{
    const float *bias = nullptr; ///< per-column bias, indexed by panel column
    bool relu = false;

    /** The epilogue of column @p j applied to its finished value @p v. */
    float
    apply(float v, int64_t j) const
    {
        if (bias)
            v += bias[j];
        return relu ? std::max(v, 0.0f) : v;
    }
};

/**
 * @p rows A rows (row stride @p lda) times a B panel (rows [n0, n0+w)
 * of row-major B[n][k], passed as b + n0*k and read in place), into C
 * rows of stride @p ldc, each output stored through @p ep. Outputs go
 * through the tier's register tile, IsaKernels::gemmRows A rows by
 * IsaKernels::gemmCols B columns, so each A vector is loaded once per
 * column group and each B vector once per row group; ragged rows and
 * columns go through narrower tiles. Every output element gets the
 * same arithmetic either way.
 */
using GemmBlockFn = void (*)(const float *a, int64_t lda, const float *b,
                             float *c, int64_t ldc, int64_t rows, int64_t w,
                             int64_t k, bool accumulate, GemmEpilogue ep);

/** dst[0..dim) += src[0..dim) (embedding-row gather accumulate). */
using SlsAccumFn = void (*)(float *dst, const float *src, int64_t dim);

/** dst[c] += codes[c] * scale + bias (fused dequantize-accumulate). */
using QslsAccumFn = void (*)(float *dst, const uint8_t *codes,
                             float scale, float bias, int64_t dim);

/** Kernel set for one ISA tier. */
struct IsaKernels
{
    /** False when the TU was compiled without this tier's ISA. */
    bool available = false;
    GemmBlockFn gemmBlock = nullptr;
    /** A rows per gemmBlock register tile (1 = no row tiling). */
    int gemmRows = 1;
    /** B columns per gemmBlock register tile. */
    int gemmCols = 1;
    SlsAccumFn slsAccum = nullptr;
    QslsAccumFn qslsAccum = nullptr;
};

/**
 * Kernels for @p isa. The scalar tier is always available; vector
 * tiers report available=false when the toolchain could not build
 * them (the cache then never dispatches there).
 */
const IsaKernels &kernelsFor(KernelIsa isa);

} // namespace microkernels
} // namespace recperf

#endif // RECPERF_OPS_MICROKERNELS_HH
