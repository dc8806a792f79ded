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
    // count). Length validation happens here, before the fan-out.
    int64_t slots = static_cast<int64_t>(lengths.size());
    std::vector<int64_t> offsets(static_cast<size_t>(slots) + 1, 0);
    for (int64_t slot = 0; slot < slots; ++slot) {
        RP_ASSERT(lengths[static_cast<size_t>(slot)] >= 0,
                  "negative length at slot %lld",
                  static_cast<long long>(slot));
        offsets[static_cast<size_t>(slot) + 1] =
            offsets[static_cast<size_t>(slot)] +
            lengths[static_cast<size_t>(slot)];
    }

    // The cache key buckets average pooling: the row-accumulate kernel
    // (vector tier + unroll) is what tuning picks, and element-wise
    // vertical adds keep every tier bit-identical to scalar.
    const KernelCache::SlsEntry &entry = KernelCache::global().sls(
        dim_, poolingBucket(slots > 0 ? total / slots : 0),
        /*quantized=*/false);
    const microkernels::SlsAccumFn accum = entry.plan.fn;

    Tensor out({slots, dim_});
    // Aim for chunks of at least ~4K gathered floats.
    int64_t grain = std::max<int64_t>(
        1, 4096 / std::max<int64_t>(1, dim_));
    const auto t0 = std::chrono::steady_clock::now();
    parallelFor(0, slots, grain, [&](int64_t lo, int64_t hi) {
        for (int64_t slot = lo; slot < hi; ++slot) {
            size_t cursor =
                static_cast<size_t>(offsets[static_cast<size_t>(slot)]);
            int64_t len = lengths[static_cast<size_t>(slot)];
            float *dst = out.data() + slot * dim_;
            for (int64_t j = 0; j < len; ++j) {
                int64_t id = ids[cursor++];
                RP_ASSERT(id >= 0 && id < rows_,
                          "sparse ID %lld out of table rows %lld",
                          static_cast<long long>(id),
                          static_cast<long long>(rows_));
                accum(dst, table_.data() + id * dim_, dim_);
            }
            if (reduction == SlsReduction::Mean && len > 0) {
                float inv = 1.0f / static_cast<float>(len);
                for (int64_t c = 0; c < dim_; ++c)
                    dst[c] *= inv;
            }
        }
    });
    entry.recordCall(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
    return out;
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
