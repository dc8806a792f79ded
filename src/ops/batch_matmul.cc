#include "ops/batch_matmul.hh"

#include <algorithm>

#include "core/logging.hh"
#include "core/thread_pool.hh"
#include "obs/trace.hh"
#include "ops/fully_connected.hh"

namespace recperf {

Tensor
batchMatMulBt(const Tensor &a, const Tensor &b)
{
    obs::Tracer::Scope trace(obs::Tracer::global(), "op", "batchMatMulBt");
    RP_ASSERT(a.rank() == 3 && b.rank() == 3,
              "batchMatMul operands must be rank 3, got %s and %s",
              shapeToString(a.shape()).c_str(),
              shapeToString(b.shape()).c_str());
    RP_ASSERT(a.dim(0) == b.dim(0) && a.dim(2) == b.dim(2),
              "batchMatMul shape mismatch %s x %s",
              shapeToString(a.shape()).c_str(),
              shapeToString(b.shape()).c_str());

    int64_t batch = a.dim(0), m = a.dim(1), k = a.dim(2), n = b.dim(1);
    Tensor c({batch, m, n});
    if (batch >= globalThreadCount()) {
        // Enough independent matmuls to feed every thread: go
        // inter-op. The nested gemmBt calls detect the surrounding
        // region and run inline, so the kernel per item is the serial
        // one — bitwise-identical either way.
        parallelFor(0, batch, 1, [&](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i) {
                gemmBt(a.data() + i * m * k, b.data() + i * n * k,
                       c.data() + i * m * n, m, n, k,
                       /*accumulate=*/false);
            }
        });
    } else {
        // Few large matmuls: let each gemmBt parallelize over rows.
        for (int64_t i = 0; i < batch; ++i) {
            gemmBt(a.data() + i * m * k, b.data() + i * n * k,
                   c.data() + i * m * n, m, n, k, /*accumulate=*/false);
        }
    }
    return c;
}

Tensor
dotInteraction(const Tensor &features)
{
    RP_ASSERT(features.rank() == 3, "dotInteraction input must be rank 3");
    int64_t batch = features.dim(0);
    int64_t f = features.dim(1);
    int64_t pairs = f * (f - 1) / 2;
    Tensor out({batch, pairs});
    dotInteractionInto(features.data(), batch, f, features.dim(2),
                       out.data(), pairs);
    return out;
}

namespace {

/** One dot interaction, shared with the pool by pointer. */
struct DotTask
{
    const float *features;
    int64_t f, d;
    float *out;
    int64_t ldo;

    void
    run(int64_t lo, int64_t hi) const
    {
        for (int64_t b = lo; b < hi; ++b) {
            const float *z = features + b * f * d;
            float *dst = out + b * ldo;
            int64_t idx = 0;
            for (int64_t i = 1; i < f; ++i) {
                for (int64_t j = 0; j < i; ++j) {
                    const float *zi = z + i * d;
                    const float *zj = z + j * d;
                    float acc = 0.0f;
                    for (int64_t c = 0; c < d; ++c)
                        acc += zi[c] * zj[c];
                    dst[idx++] = acc;
                }
            }
        }
    }
};

} // namespace

void
dotInteractionInto(const float *features, int64_t batch, int64_t f,
                   int64_t d, float *out, int64_t ldo)
{
    obs::Tracer::Scope trace(obs::Tracer::global(), "op",
                             "dotInteraction");
    const DotTask task{features, f, d, out, ldo};
    int64_t pairs = f * (f - 1) / 2;
    // One chunk should cover at least ~16K multiply-adds.
    int64_t grain = std::max<int64_t>(
        1, 16384 / std::max<int64_t>(1, pairs * d));
    parallelFor(0, batch, grain,
                [&task](int64_t lo, int64_t hi) { task.run(lo, hi); });
}

OpCost
batchMatMulCost(int64_t batch, int64_t m, int64_t n, int64_t k)
{
    OpCost c;
    c.flops = 2.0 * static_cast<double>(batch) * static_cast<double>(m) *
        static_cast<double>(n) * static_cast<double>(k);
    c.bytesRead = sizeof(float) * static_cast<double>(batch) *
        (static_cast<double>(m) * static_cast<double>(k) +
         static_cast<double>(n) * static_cast<double>(k));
    c.bytesWritten = sizeof(float) * static_cast<double>(batch) *
        static_cast<double>(m) * static_cast<double>(n);
    return c;
}

} // namespace recperf
