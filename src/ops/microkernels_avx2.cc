/**
 * @file
 * AVX2+FMA microkernel tier: two independent 8-lane FMA chains per
 * output (stride 16 over K), reduced with a fixed pairwise tree.
 * Compiled with per-file -mavx2 -mfma (see src/ops/CMakeLists.txt);
 * when the toolchain cannot target AVX2 the tier degrades to an
 * available=false stub and the cache never dispatches here.
 */

#include "ops/microkernels_impl.hh"

#if defined(__AVX2__) && defined(__FMA__)
#include <cmath>

#include <immintrin.h>

namespace recperf {
namespace microkernels {
namespace {

struct Avx2Ops
{
    using V = __m256;
    static constexpr int kLanes = 8;
    static constexpr int kAcc = 2;
    // A 2x2 row tile fits the 16 ymm registers but measured no faster
    // than one row on an AVX-512 Xeon (and 15-20% slower at K <= 256),
    // so AVX2 keeps one row. Two columns share each A load: the RMC3
    // GEMM stack ran 1.35x faster than with one column at 2 threads.
    static constexpr int kRows = 1;
    static constexpr int kCols = 2;

    static V
    zero()
    {
        return _mm256_setzero_ps();
    }
    static V
    load(const float *p)
    {
        return _mm256_loadu_ps(p);
    }
    static V
    madd(V a, V b, V acc)
    {
        return _mm256_fmadd_ps(a, b, acc);
    }
    static float
    madd1(float a, float b, float acc)
    {
        return std::fma(a, b, acc);
    }
    static V
    add(V a, V b)
    {
        return _mm256_add_ps(a, b);
    }
    static void
    store(float *p, V a)
    {
        _mm256_storeu_ps(p, a);
    }
    static float
    reduce(const V acc[kAcc])
    {
        // Fixed tree: chain merge, 256 -> 128 -> 64 -> 32.
        const __m256 s = _mm256_add_ps(acc[0], acc[1]);
        const __m128 lo = _mm256_castps256_ps128(s);
        const __m128 hi = _mm256_extractf128_ps(s, 1);
        const __m128 q = _mm_add_ps(lo, hi);
        const __m128 d = _mm_add_ps(q, _mm_movehl_ps(q, q));
        const __m128 r =
            _mm_add_ss(d, _mm_shuffle_ps(d, d, _MM_SHUFFLE(1, 1, 1, 1)));
        return _mm_cvtss_f32(r);
    }
    static V
    broadcast(float x)
    {
        return _mm256_set1_ps(x);
    }
    static V
    loadU8(const uint8_t *p)
    {
        const __m128i bytes =
            _mm_loadl_epi64(reinterpret_cast<const __m128i *>(p));
        return _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(bytes));
    }
    static V
    dequantMadd(V v, V scale, V bias)
    {
        return _mm256_fmadd_ps(v, scale, bias);
    }
};

} // namespace

const IsaKernels &
avx2Kernels()
{
    static const IsaKernels kernels = detail::makeKernels<Avx2Ops>();
    return kernels;
}

} // namespace microkernels
} // namespace recperf

#else // !(__AVX2__ && __FMA__)

namespace recperf {
namespace microkernels {

const IsaKernels &
avx2Kernels()
{
    static const IsaKernels kernels; // available = false
    return kernels;
}

} // namespace microkernels
} // namespace recperf

#endif
