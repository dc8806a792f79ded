/**
 * @file
 * AVX-512F microkernel tier: two independent 16-lane FMA chains per
 * output (stride 32 over K), fixed 512 -> 256 -> 128 -> 64 -> 32
 * reduction tree. Compiled with per-file -mavx512f -mfma; only
 * AVX512F intrinsics are used (the 256-bit half extraction goes
 * through extractf64x4, which F provides, rather than DQ's
 * extractf32x8), so the TU builds on any -mavx512f toolchain.
 */

#include "ops/microkernels_impl.hh"

#if defined(__AVX512F__)
#include <cmath>

#include <immintrin.h>

namespace recperf {
namespace microkernels {
namespace {

struct Avx512Ops
{
    using V = __m512;
    static constexpr int kLanes = 16;
    static constexpr int kAcc = 2;
    // A 4 x 1 tile: 8 accumulators of 32 zmm registers. The 4 x 2 tile
    // (16 accumulators) fits too but ran the RMC3 GEMM stack ~4% slower
    // at 2 threads on an AVX-512 Xeon.
    static constexpr int kRows = 4;
    static constexpr int kCols = 1;

    static V
    zero()
    {
        return _mm512_setzero_ps();
    }
    static V
    load(const float *p)
    {
        return _mm512_loadu_ps(p);
    }
    static V
    madd(V a, V b, V acc)
    {
        return _mm512_fmadd_ps(a, b, acc);
    }
    static float
    madd1(float a, float b, float acc)
    {
        return std::fma(a, b, acc);
    }
    static V
    add(V a, V b)
    {
        return _mm512_add_ps(a, b);
    }
    static void
    store(float *p, V a)
    {
        _mm512_storeu_ps(p, a);
    }
    static float
    reduce(const V acc[kAcc])
    {
        const __m512 s = _mm512_add_ps(acc[0], acc[1]);
        const __m256 lo = _mm512_castps512_ps256(s);
        const __m256 hi = _mm256_castpd_ps(
            _mm512_extractf64x4_pd(_mm512_castps_pd(s), 1));
        const __m256 o = _mm256_add_ps(lo, hi);
        const __m128 q = _mm_add_ps(_mm256_castps256_ps128(o),
                                    _mm256_extractf128_ps(o, 1));
        const __m128 d = _mm_add_ps(q, _mm_movehl_ps(q, q));
        const __m128 r =
            _mm_add_ss(d, _mm_shuffle_ps(d, d, _MM_SHUFFLE(1, 1, 1, 1)));
        return _mm_cvtss_f32(r);
    }
    static V
    broadcast(float x)
    {
        return _mm512_set1_ps(x);
    }
    static V
    loadU8(const uint8_t *p)
    {
        const __m128i bytes =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
        return _mm512_cvtepi32_ps(_mm512_cvtepu8_epi32(bytes));
    }
    static V
    dequantMadd(V v, V scale, V bias)
    {
        return _mm512_fmadd_ps(v, scale, bias);
    }
};

} // namespace

const IsaKernels &
avx512Kernels()
{
    static const IsaKernels kernels = detail::makeKernels<Avx512Ops>();
    return kernels;
}

} // namespace microkernels
} // namespace recperf

#else // !__AVX512F__

namespace recperf {
namespace microkernels {

const IsaKernels &
avx512Kernels()
{
    static const IsaKernels kernels; // available = false
    return kernels;
}

} // namespace microkernels
} // namespace recperf

#endif
