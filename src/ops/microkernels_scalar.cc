/**
 * @file
 * Scalar microkernel tier: 4 independent accumulator chains with a
 * pairwise merge — the same association order as the seed
 * `dotUnrolled`, so existing exact-value tests keep their bits. This
 * TU is compiled with the base target (no -mfma), which also
 * guarantees the compiler cannot contract the multiply-adds.
 */

#include "ops/microkernels_impl.hh"

namespace recperf {
namespace microkernels {
namespace {

struct ScalarOps
{
    struct V
    {
        float f[4];
    };
    static constexpr int kLanes = 4;
    static constexpr int kAcc = 1;
    // A second row doubles the live scalar chains past what the 16
    // SSE registers hold: a 2-row tile ran the RMC3 GEMMs 1.6-1.8x
    // slower on an AVX-512 Xeon. A second column does the same: a 1 x 2
    // tile ran them 2.1-2.3x slower.
    static constexpr int kRows = 1;
    static constexpr int kCols = 1;

    static V
    zero()
    {
        return {{0.0f, 0.0f, 0.0f, 0.0f}};
    }
    static V
    load(const float *p)
    {
        return {{p[0], p[1], p[2], p[3]}};
    }
    static V
    madd(V a, V b, V acc)
    {
        for (int i = 0; i < 4; ++i)
            acc.f[i] += a.f[i] * b.f[i];
        return acc;
    }
    static float
    madd1(float a, float b, float acc)
    {
        const float prod = a * b;
        return acc + prod;
    }
    static V
    add(V a, V b)
    {
        for (int i = 0; i < 4; ++i)
            a.f[i] += b.f[i];
        return a;
    }
    static void
    store(float *p, V a)
    {
        for (int i = 0; i < 4; ++i)
            p[i] = a.f[i];
    }
    static float
    reduce(const V acc[kAcc])
    {
        const float *f = acc[0].f;
        return (f[0] + f[1]) + (f[2] + f[3]);
    }
    static V
    broadcast(float x)
    {
        return {{x, x, x, x}};
    }
    static V
    loadU8(const uint8_t *p)
    {
        return {{static_cast<float>(p[0]), static_cast<float>(p[1]),
                 static_cast<float>(p[2]), static_cast<float>(p[3])}};
    }
    static V
    dequantMadd(V v, V scale, V bias)
    {
        V t;
        for (int i = 0; i < 4; ++i)
            t.f[i] = v.f[i] * scale.f[i] + bias.f[i];
        return t;
    }
};

} // namespace

const IsaKernels &
scalarKernels()
{
    static const IsaKernels kernels = detail::makeKernels<ScalarOps>();
    return kernels;
}

} // namespace microkernels
} // namespace recperf
