/**
 * @file
 * Per-ISA GEMM / SparseLengthsSum microkernels.
 *
 * Each vector tier (scalar, AVX2+FMA, AVX-512F) lives in its own
 * translation unit compiled with per-file `-mavx2` / `-mavx512f`
 * flags, so one binary carries every variant and the kernel cache
 * picks among them at runtime from CPUID (machine/simd.hh).
 *
 * Determinism contract (DESIGN.md §14): every ISA tier fixes ONE
 * accumulation pattern per output element — the number of independent
 * accumulator chains, their stride over K, the reduction tree, and the
 * scalar-tail handling never vary with the tuned blocking parameters.
 * MC x NC (the parallel task grid), KC (pack chunk size), NR
 * (register-tile columns) and the tier's fixed register-tile row count
 * only re-tile *loops*, never re-associate *arithmetic*, so within a
 * pinned ISA the results are bit-identical across thread counts,
 * blocking choices, and cache cold/warm runs.
 * KC is therefore constrained to multiples of kKcQuantum (64), which
 * keeps chunk boundaries aligned with every tier's accumulator stride
 * (scalar steps 4, AVX2 steps 16, AVX-512 steps 32).
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

#include <cstdint>

#include "machine/simd.hh"

namespace recperf {
namespace microkernels {

/** KC granularity; keeps pack-chunk edges on accumulator strides. */
constexpr int64_t kKcQuantum = 64;

/**
 * One A row times a packed B panel (columns [n0, n0+w) of row-major
 * B[n][k]), writing / accumulating into crow[0..w). The pack layout is
 * chunk-major (see gemmPackPanel); @p kc is the pack chunk size and
 * @p nr the register-tile width (1, 2, or 4 columns per inner tile).
 */
using GemmRowFn = void (*)(const float *arow, const float *pack,
                           float *crow, int64_t w, int64_t k, int64_t kc,
                           int nr, bool accumulate);

/**
 * @p rows A rows (row stride @p lda) times the same packed panel, into
 * C rows of stride @p ldc. Rows go through a register tile of the
 * tier's IsaKernels::gemmRows rows, so each packed B vector is loaded
 * once per row group; leftover rows go through gemmRow. Every output
 * element gets exactly gemmRow's arithmetic.
 */
using GemmBlockFn = void (*)(const float *a, int64_t lda, const float *pack,
                             float *c, int64_t ldc, int64_t rows, int64_t w,
                             int64_t k, int64_t kc, int nr, bool accumulate);

/** dst[0..dim) += src[0..dim) (embedding-row gather accumulate). */
using SlsAccumFn = void (*)(float *dst, const float *src, int64_t dim);

/** dst[c] += codes[c] * scale + bias (fused dequantize-accumulate). */
using QslsAccumFn = void (*)(float *dst, const uint8_t *codes,
                             float scale, float bias, int64_t dim);

/** Unroll variants per SLS kernel (1x / 2x vector step). */
constexpr int kSlsUnrolls = 2;

/** Kernel set for one ISA tier. */
struct IsaKernels
{
    /** False when the TU was compiled without this tier's ISA. */
    bool available = false;
    GemmRowFn gemmRow = nullptr;
    GemmBlockFn gemmBlock = nullptr;
    /** A rows per gemmBlock register tile (1 = no row tiling). */
    int gemmRows = 1;
    SlsAccumFn slsAccum[kSlsUnrolls] = {};
    QslsAccumFn qslsAccum[kSlsUnrolls] = {};
};

/**
 * Kernels for @p isa. The scalar tier is always available; vector
 * tiers report available=false when the toolchain could not build
 * them (the cache then never dispatches there).
 */
const IsaKernels &kernelsFor(KernelIsa isa);

/** Floats needed to pack an @p nc-wide panel of K depth @p k. */
inline int64_t
gemmPackFloats(int64_t nc, int64_t k, int64_t kc)
{
    int64_t chunks = (k + kc - 1) / kc;
    return chunks > 0 ? chunks * nc * kc : nc;
}

/**
 * Pack columns [n0, n0+w) of row-major B[n][k] into chunk-major
 * layout: chunk q of column j lives at pack + (q*w + j)*kc, holding
 * min(kc, k - q*kc) contiguous B values (the last chunk is ragged —
 * no zero padding, so -0.0/+0.0 bit patterns are never synthesized).
 */
void gemmPackPanel(const float *b, int64_t k, int64_t n0, int64_t w,
                   int64_t kc, float *pack);

} // namespace microkernels
} // namespace recperf

#endif // RECPERF_OPS_MICROKERNELS_HH
