#include "ops/sparse_lengths_sum.hh"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "core/logging.hh"
#include "core/rng.hh"
#include "core/thread_pool.hh"
#include "obs/trace.hh"
#include "ops/integrity.hh"
#include "ops/kernel_cache.hh"

namespace recperf {

EmbeddingTable::EmbeddingTable(int64_t rows, int64_t dim)
    : rows_(rows), dim_(dim), table_({rows, dim})
{
    RP_ASSERT(rows > 0 && dim > 0,
              "embedding table dims must be positive, got %lld x %lld",
              static_cast<long long>(rows), static_cast<long long>(dim));
}

EmbeddingTable::EmbeddingTable(int64_t rows, int64_t dim, Rng &rng)
    : EmbeddingTable(rows, dim)
{
    float scale = 1.0f / static_cast<float>(dim);
    table_.fillUniform(rng, -0.5f * scale, 0.5f * scale);
}

Tensor
EmbeddingTable::forward(const std::vector<int64_t> &ids,
                        const std::vector<int64_t> &lengths,
                        SlsReduction reduction) const
{
    Tensor out = Tensor::uninitialized(
        {static_cast<int64_t>(lengths.size()), dim_});
    forwardInto(ids, lengths, out.data(), dim_, reduction);
    return out;
}

namespace {

/** One pooled lookup's slot loop, shared with the pool by pointer (so
 *  the parallelFor closure is one pointer and never heap-allocates). */
struct SlsTask
{
    const int64_t *ids;
    const int64_t *lengths;
    const int64_t *offsets;
    const float *table;
    int64_t rows, dim;
    float *dst;
    int64_t ld;
    microkernels::SlsAccumFn accum;
    SlsReduction reduction;

    void
    run(int64_t lo, int64_t hi) const
    {
        for (int64_t slot = lo; slot < hi; ++slot) {
            const int64_t *id = ids + offsets[slot];
            const int64_t len = lengths[slot];
            float *row = dst + slot * ld;
            std::fill(row, row + dim, 0.0f);
            for (int64_t j = 0; j < len; ++j) {
                RP_ASSERT(id[j] >= 0 && id[j] < rows,
                          "sparse ID %lld out of table rows %lld",
                          static_cast<long long>(id[j]),
                          static_cast<long long>(rows));
                accum(row, table + id[j] * dim, dim);
            }
            if (reduction == SlsReduction::Mean && len > 0) {
                float inv = 1.0f / static_cast<float>(len);
                for (int64_t c = 0; c < dim; ++c)
                    row[c] *= inv;
            }
        }
    }
};

} // namespace

void
EmbeddingTable::forwardInto(const std::vector<int64_t> &ids,
                            const std::vector<int64_t> &lengths, float *dst,
                            int64_t ld, SlsReduction reduction) const
{
    obs::Tracer::Scope trace(obs::Tracer::global(), "op", "SLS::forward");
    int64_t total = std::accumulate(lengths.begin(), lengths.end(),
                                    static_cast<int64_t>(0));
    RP_ASSERT(total == static_cast<int64_t>(ids.size()),
              "sum(lengths)=%lld != ids.size()=%zu",
              static_cast<long long>(total), ids.size());

    // Inline sampled integrity verification: serial, ahead of the
    // parallel fan-out, so sampling stays deterministic across thread
    // counts.
    if (verifier_)
        verifier_->onLookup(ids);

    // Prefix offsets make each output slot independent, so the slot
    // loop fans out across the pool; each slot's gather keeps its
    // serial accumulation order (bitwise-identical at any thread
    // count). Length validation happens here, before the fan-out. The
    // offsets live in this thread's scratch, which only grows, so a
    // steady-state lookup never touches the heap.
    thread_local std::vector<int64_t> offsets;
    const int64_t slots = static_cast<int64_t>(lengths.size());
    if (offsets.size() < static_cast<size_t>(slots) + 1)
        offsets.resize(static_cast<size_t>(slots) + 1);
    offsets[0] = 0;
    for (int64_t slot = 0; slot < slots; ++slot) {
        RP_ASSERT(lengths[static_cast<size_t>(slot)] >= 0,
                  "negative length at slot %lld",
                  static_cast<long long>(slot));
        offsets[static_cast<size_t>(slot) + 1] =
            offsets[static_cast<size_t>(slot)] +
            lengths[static_cast<size_t>(slot)];
    }

    // The cache key buckets average pooling; the plan is the tier's
    // row-accumulate kernel, whose element-wise vertical adds keep
    // every tier bit-identical to scalar.
    const KernelCache::SlsEntry &entry = KernelCache::global().sls(
        dim_, poolingBucket(slots > 0 ? total / slots : 0),
        /*quantized=*/false);
    const SlsTask task{.ids = ids.data(),
                       .lengths = lengths.data(),
                       .offsets = offsets.data(),
                       .table = table_.data(),
                       .rows = rows_,
                       .dim = dim_,
                       .dst = dst,
                       .ld = ld,
                       .accum = entry.plan.fn,
                       .reduction = reduction};

    // Aim for chunks of at least ~4K gathered floats.
    int64_t grain = std::max<int64_t>(
        1, 4096 / std::max<int64_t>(1, dim_));
    const auto t0 = std::chrono::steady_clock::now();
    parallelFor(0, slots, grain,
                [&task](int64_t lo, int64_t hi) { task.run(lo, hi); });
    entry.recordCall(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
}

OpCost
EmbeddingTable::cost(int64_t total_ids, int64_t outputs, int64_t dim)
{
    OpCost c;
    // One add per gathered element; negligible extra for Mean's scale.
    c.flops = static_cast<double>(total_ids) * static_cast<double>(dim);
    // Each gathered row is read from the table; IDs themselves are 8 B.
    c.bytesRead = static_cast<double>(total_ids) *
            static_cast<double>(dim) * sizeof(float) +
        static_cast<double>(total_ids) * sizeof(int64_t);
    c.bytesWritten = static_cast<double>(outputs) *
        static_cast<double>(dim) * sizeof(float);
    return c;
}

} // namespace recperf
