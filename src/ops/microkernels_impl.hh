/**
 * @file
 * Shared microkernel bodies, templated over an ISA "Ops" policy.
 *
 * Included by exactly the per-ISA translation units
 * (microkernels_{scalar,avx2,avx512}.cc); each defines an Ops struct
 * (vector type, lane count, accumulator-chain count, load/madd/reduce
 * primitives) and instantiates these templates. The loop structure —
 * and therefore the floating-point association order — is fixed here
 * once, so a tier's results cannot drift between kernels: only the
 * Ops primitives differ.
 *
 * An Ops policy provides:
 *   using V;                        // vector register type
 *   static constexpr int kLanes;    // fp32 lanes per V
 *   static constexpr int kAcc;      // independent accumulator chains
 *   static constexpr int kRows;     // A rows per gemmBlock register tile
 *   static constexpr int kCols;     // B columns per gemmBlock register tile
 *   V zero(); V load(const float*); V madd(V a, V b, V acc);
 *   float madd1(float a, float b, float acc); // madd's rounding, 1 lane
 *   V add(V, V); void store(float*, V);
 *   float reduce(const V acc[kAcc]);           // fixed pairwise tree
 *   V broadcast(float); V loadU8(const uint8_t*);
 *   V dequantMadd(V v, V scale, V bias);       // v*scale + bias
 */

#ifndef RECPERF_OPS_MICROKERNELS_IMPL_HH
#define RECPERF_OPS_MICROKERNELS_IMPL_HH

#include <algorithm>

#include "ops/microkernels.hh"

namespace recperf {
namespace microkernels {

// Per-ISA kernel-set accessors, one per translation unit. A tier whose
// ISA the toolchain could not target returns available=false.
const IsaKernels &scalarKernels();
const IsaKernels &avx2Kernels();
const IsaKernels &avx512Kernels();

namespace detail {

/**
 * One register tile: ROWS A rows against COLS B rows, read in place
 * (row j of the panel at b + j*k). The K walk steps kLanes*kAcc floats
 * at a time in one pass, merges the chains with Ops::reduce's fixed
 * tree, then folds the ragged tail (< STEP elements) sequentially with Ops::madd1 —
 * the same shape the seed dotUnrolled used, independent of the tile
 * and the blocking. ROWS and COLS only share each vector load across
 * independent outputs; no output's chains ever see another output's
 * terms, so a ROWS x COLS tile is bit-identical to ROWS * COLS 1 x 1
 * tiles. The store applies @p ep to each finished value.
 */
template <class Ops, int ROWS, int COLS>
inline void
gemmTile(const float *arow, int64_t lda, const float *b, float *crow,
         int64_t ldc, int64_t j0, int64_t k, bool accumulate,
         GemmEpilogue ep)
{
    constexpr int64_t STEP =
        static_cast<int64_t>(Ops::kLanes) * Ops::kAcc;
    typename Ops::V acc[ROWS][COLS][Ops::kAcc];
    for (int r = 0; r < ROWS; ++r)
        for (int c = 0; c < COLS; ++c)
            for (int h = 0; h < Ops::kAcc; ++h)
                acc[r][c][h] = Ops::zero();

    const float *bcol[COLS];
    for (int c = 0; c < COLS; ++c)
        bcol[c] = b + (j0 + c) * k;
    const int64_t k_main = k - (k % STEP);
    for (int64_t p = 0; p < k_main; p += STEP) {
        for (int h = 0; h < Ops::kAcc; ++h) {
            const int64_t off = p + h * Ops::kLanes;
            typename Ops::V bv[COLS];
            for (int c = 0; c < COLS; ++c)
                bv[c] = Ops::load(bcol[c] + off);
            for (int r = 0; r < ROWS; ++r) {
                const typename Ops::V xv = Ops::load(arow + r * lda + off);
                for (int c = 0; c < COLS; ++c)
                    acc[r][c][h] = Ops::madd(xv, bv[c], acc[r][c][h]);
            }
        }
    }

    for (int r = 0; r < ROWS; ++r) {
        const float *x = arow + r * lda;
        for (int c = 0; c < COLS; ++c) {
            float t = Ops::reduce(acc[r][c]);
            for (int64_t p = k_main; p < k; ++p)
                t = Ops::madd1(x[p], bcol[c][p], t);
            float *out = crow + r * ldc + j0 + c;
            *out = ep.apply(accumulate ? *out + t : t, j0 + c);
        }
    }
}

/** One group of R A rows across the panel: COLS-wide tiles at the
 *  tier's kCols, then the ragged column remainder one at a time. */
template <class Ops, int R>
void
gemmRowGroup(const float *a, int64_t lda, const float *b, float *c,
             int64_t ldc, int64_t w, int64_t k, bool accumulate,
             GemmEpilogue ep)
{
    constexpr int C = Ops::kCols;
    int64_t j = 0;
    if constexpr (C > 1) {
        for (; j + C <= w; j += C)
            gemmTile<Ops, R, C>(a, lda, b, c, ldc, j, k, accumulate, ep);
    }
    for (; j < w; ++j)
        gemmTile<Ops, R, 1>(a, lda, b, c, ldc, j, k, accumulate, ep);
}

/** Row-group loop: Ops::kRows-row groups, then leftover rows one at a
 *  time. The tile shape, like the blocking, is bit-neutral. */
template <class Ops>
void
gemmBlockImpl(const float *a, int64_t lda, const float *b, float *c,
              int64_t ldc, int64_t rows, int64_t w, int64_t k,
              bool accumulate, GemmEpilogue ep)
{
    constexpr int R = Ops::kRows;
    int64_t i = 0;
    for (; i + R <= rows; i += R)
        gemmRowGroup<Ops, R>(a + i * lda, lda, b, c + i * ldc, ldc, w, k,
                             accumulate, ep);
    if constexpr (R > 1) {
        for (; i < rows; ++i)
            gemmRowGroup<Ops, 1>(a + i * lda, lda, b, c + i * ldc, ldc, w,
                                 k, accumulate, ep);
    }
}

/** dst += src: element-independent vertical adds — bit-identical to
 *  scalar on every tier. */
template <class Ops>
void
slsAccumImpl(float *dst, const float *src, int64_t dim)
{
    int64_t c = 0;
    for (; c + Ops::kLanes <= dim; c += Ops::kLanes)
        Ops::store(dst + c, Ops::add(Ops::load(dst + c), Ops::load(src + c)));
    for (; c < dim; ++c)
        dst[c] += src[c];
}

/** dst[c] += codes[c]*scale + bias. Vector tiers fuse the dequantize
 *  into one FMA rounding; the scalar tail keeps the two-rounding form
 *  (tolerance contract, not bitwise, across tiers). */
template <class Ops>
void
qslsAccumImpl(float *dst, const uint8_t *codes, float scale, float bias,
              int64_t dim)
{
    const typename Ops::V vs = Ops::broadcast(scale);
    const typename Ops::V vb = Ops::broadcast(bias);
    int64_t c = 0;
    for (; c + Ops::kLanes <= dim; c += Ops::kLanes) {
        const typename Ops::V t =
            Ops::dequantMadd(Ops::loadU8(codes + c), vs, vb);
        Ops::store(dst + c, Ops::add(Ops::load(dst + c), t));
    }
    for (; c < dim; ++c) {
        const float t = static_cast<float>(codes[c]) * scale + bias;
        dst[c] += t;
    }
}

/** Assemble the full kernel set for one Ops policy. */
template <class Ops>
IsaKernels
makeKernels()
{
    IsaKernels k;
    k.available = true;
    k.gemmBlock = &gemmBlockImpl<Ops>;
    k.gemmRows = Ops::kRows;
    k.gemmCols = Ops::kCols;
    k.slsAccum = &slsAccumImpl<Ops>;
    k.qslsAccum = &qslsAccumImpl<Ops>;
    return k;
}

} // namespace detail
} // namespace microkernels
} // namespace recperf

#endif // RECPERF_OPS_MICROKERNELS_IMPL_HH
