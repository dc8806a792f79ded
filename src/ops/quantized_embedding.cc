#include "ops/quantized_embedding.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>

#include "core/logging.hh"
#include "core/thread_pool.hh"
#include "obs/trace.hh"
#include "ops/integrity.hh"
#include "ops/kernel_cache.hh"

namespace recperf {

QuantizedEmbeddingTable::QuantizedEmbeddingTable(const EmbeddingTable &source)
    : rows_(source.rows()), dim_(source.dim())
{
    codes_.resize(static_cast<size_t>(rows_ * dim_));
    scales_.resize(static_cast<size_t>(rows_));
    biases_.resize(static_cast<size_t>(rows_));

    const Tensor &table = source.table();
    for (int64_t r = 0; r < rows_; ++r) {
        const float *row = table.data() + r * dim_;
        float lo = row[0], hi = row[0];
        for (int64_t c = 1; c < dim_; ++c) {
            lo = std::min(lo, row[c]);
            hi = std::max(hi, row[c]);
        }
        float scale = (hi - lo) / 255.0f;
        if (scale == 0.0f)
            scale = 1.0f; // constant row; all codes become 0
        scales_[static_cast<size_t>(r)] = scale;
        biases_[static_cast<size_t>(r)] = lo;
        for (int64_t c = 0; c < dim_; ++c) {
            float q = std::round((row[c] - lo) / scale);
            q = std::clamp(q, 0.0f, 255.0f);
            codes_[static_cast<size_t>(r * dim_ + c)] =
                static_cast<uint8_t>(q);
        }
    }
}

void
QuantizedEmbeddingTable::dequantizeRow(int64_t row, float *out) const
{
    RP_ASSERT(row >= 0 && row < rows_, "row %lld out of %lld",
              static_cast<long long>(row), static_cast<long long>(rows_));
    float scale = scales_[static_cast<size_t>(row)];
    float bias = biases_[static_cast<size_t>(row)];
    const uint8_t *codes = codes_.data() + row * dim_;
    for (int64_t c = 0; c < dim_; ++c)
        out[c] = static_cast<float>(codes[c]) * scale + bias;
}

Tensor
QuantizedEmbeddingTable::forward(const std::vector<int64_t> &ids,
                                 const std::vector<int64_t> &lengths,
                                 SlsReduction reduction) const
{
    obs::Tracer::Scope trace(obs::Tracer::global(), "op",
                             "QSLS::forward");
    int64_t total = std::accumulate(lengths.begin(), lengths.end(),
                                    static_cast<int64_t>(0));
    RP_ASSERT(total == static_cast<int64_t>(ids.size()),
              "sum(lengths)=%lld != ids.size()=%zu",
              static_cast<long long>(total), ids.size());

    // Same serial inline integrity hook as EmbeddingTable::forward.
    if (verifier_)
        verifier_->onLookup(ids);

    // Mirrors EmbeddingTable::forward: prefix offsets decouple the
    // slots, the pool fans them out, and the dequantize scratch row is
    // per-chunk so threads never share it.
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

    // Fused dequantize-accumulate through the tier's kernel: no scratch
    // row, and vector tiers fold the mul-add into one FMA (tolerance,
    // not bitwise, vs the scalar tier — DESIGN.md §14).
    const KernelCache::SlsEntry &entry = KernelCache::global().sls(
        dim_, poolingBucket(slots > 0 ? total / slots : 0),
        /*quantized=*/true);
    const microkernels::QslsAccumFn accum = entry.plan.qfn;

    Tensor out({slots, dim_});
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
                accum(dst, codes_.data() + id * dim_,
                      scales_[static_cast<size_t>(id)],
                      biases_[static_cast<size_t>(id)], dim_);
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

float
QuantizedEmbeddingTable::maxQuantizationStep() const
{
    float widest = 0.0f;
    for (float s : scales_)
        widest = std::max(widest, s);
    return widest;
}

OpCost
QuantizedEmbeddingTable::cost(int64_t total_ids, int64_t outputs,
                              int64_t dim)
{
    OpCost c;
    // Dequantize (mul+add) then accumulate: 3 flops per element.
    c.flops = 3.0 * static_cast<double>(total_ids) *
        static_cast<double>(dim);
    c.bytesRead = static_cast<double>(total_ids) *
            (static_cast<double>(dim) + 8.0) +
        static_cast<double>(total_ids) * sizeof(int64_t);
    c.bytesWritten = static_cast<double>(outputs) *
        static_cast<double>(dim) * sizeof(float);
    return c;
}

} // namespace recperf
