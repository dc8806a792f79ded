#include "model/rec_model.hh"

#include <algorithm>
#include <cstring>

#include "core/aligned.hh"
#include "core/logging.hh"
#include "core/rng.hh"
#include "core/thread_pool.hh"
#include "ops/batch_matmul.hh"
#include "ops/elementwise.hh"

namespace recperf {

RecModel::RecModel(const ModelConfig &config, Rng &rng) : config_(config)
{
    config_.validate();

    int64_t in = config_.denseFeatures;
    for (int64_t out : config_.bottomMlp) {
        bottom_.emplace_back(in, out, rng);
        in = out;
    }
    for (int64_t t = 0; t < config_.emb.numTables; ++t) {
        tables_.emplace_back(config_.emb.rowsOf(t), config_.emb.embDim,
                             rng);
    }
    in = config_.topInputDim();
    for (int64_t out : config_.topMlp) {
        top_.emplace_back(in, out, rng);
        in = out;
    }

    // Widest row any layer output (or the dot interaction's output)
    // needs, and the concat row: the forward arena's plan.
    actWidth_ = config_.topInputDim();
    for (int64_t w : config_.bottomMlp)
        actWidth_ = std::max(actWidth_, w);
    for (int64_t w : config_.topMlp)
        actWidth_ = std::max(actWidth_, w);
    catWidth_ = config_.bottomOutDim() +
        config_.emb.numTables * config_.emb.embDim;
}

namespace {

/**
 * This thread's forward buffers: two ping-pong activation buffers and
 * the concat/interaction buffer. forward() is const and runs on several
 * threads at once, so each calling thread plans its own; the buffers
 * only grow, so a steady-state forward never touches the heap.
 */
struct ForwardArena
{
    AlignedBuffer<float> act[2];
    AlignedBuffer<float> cat;

    static float *
    reserve(AlignedBuffer<float> &buf, int64_t floats)
    {
        if (buf.size() < static_cast<size_t>(floats))
            buf.resize(static_cast<size_t>(floats));
        return buf.data();
    }
};

/** The per-table lookups of one forward, shared with the pool by
 *  pointer (so the parallelFor closure never heap-allocates). */
struct LookupTask
{
    const std::vector<EmbeddingTable> &tables;
    const std::vector<SparseInput> &sparse;
    float *cat;     ///< concat buffer, row stride ld
    int64_t col0;   ///< first column of table 0's slice
    int64_t ld;

    void
    run(int64_t t) const
    {
        const size_t i = static_cast<size_t>(t);
        tables[i].forwardInto(sparse[i].ids, sparse[i].lengths,
                              cat + col0 + t * tables[i].dim(), ld);
    }
};

/** Copy a [rows, cols] block between row strides. */
void
copyRows(const float *src, int64_t lds, float *dst, int64_t ldd,
         int64_t rows, int64_t cols)
{
    for (int64_t r = 0; r < rows; ++r)
        std::memcpy(dst + r * ldd, src + r * lds,
                    static_cast<size_t>(cols) * sizeof(float));
}

} // namespace

Tensor
RecModel::forward(const ModelInput &input) const
{
    int64_t batch = 0;
    if (!bottom_.empty()) {
        RP_ASSERT(input.dense.rank() == 2 &&
                  input.dense.dim(1) == config_.denseFeatures,
                  "%s: dense input shape %s does not match %lld features",
                  config_.name.c_str(),
                  shapeToString(input.dense.shape()).c_str(),
                  static_cast<long long>(config_.denseFeatures));
        batch = input.dense.dim(0);
    }
    RP_ASSERT(static_cast<int64_t>(input.sparse.size()) ==
              config_.emb.numTables,
              "%s: expected %lld sparse inputs, got %zu",
              config_.name.c_str(),
              static_cast<long long>(config_.emb.numTables),
              input.sparse.size());
    const int64_t num_tables = static_cast<int64_t>(input.sparse.size());
    for (int64_t t = 0; t < num_tables; ++t) {
        const SparseInput &sp = input.sparse[static_cast<size_t>(t)];
        if (batch == 0)
            batch = static_cast<int64_t>(sp.lengths.size());
        RP_ASSERT(static_cast<int64_t>(sp.lengths.size()) == batch,
                  "%s: table %lld batch mismatch", config_.name.c_str(),
                  static_cast<long long>(t));
    }

    // Layer outputs alternate between the two activation buffers; the
    // features are concatenated in `cat`. Every layer writes its whole
    // output, so stale contents from an earlier forward (at any batch
    // size) are never read.
    thread_local ForwardArena arena;
    float *act[2] = {ForwardArena::reserve(arena.act[0], batch * actWidth_),
                     ForwardArena::reserve(arena.act[1], batch * actWidth_)};
    float *cat = ForwardArena::reserve(arena.cat, batch * catWidth_);
    int cur = 0;

    // Bottom MLP: the first layer reads the dense input in place; bias
    // and ReLU run in each GEMM's tile store.
    const float *h = input.dense.data();
    const int64_t bottom_dim = config_.bottomOutDim();
    for (const FullyConnected &fc : bottom_) {
        fc.forwardInto(h, batch, act[cur], /*relu=*/true);
        h = act[cur];
        cur ^= 1;
    }
    if (!bottom_.empty())
        copyRows(h, bottom_dim, cat, catWidth_, batch, bottom_dim);

    // Fan the independent per-table lookups across the pool (inter-op
    // parallelism — the RMC2 tables are the embedding fan-out the paper
    // identifies as the memory-bound hot path). Each table's pooled
    // gather runs the serial kernel inline and writes its column slice
    // of `cat`, so outputs match the sequential loop bitwise.
    const LookupTask lookups{tables_, input.sparse, cat, bottom_dim,
                             catWidth_};
    if (num_tables >= globalThreadCount()) {
        parallelFor(0, num_tables, 1, [&lookups](int64_t lo, int64_t hi) {
            for (int64_t t = lo; t < hi; ++t)
                lookups.run(t);
        });
    } else {
        // Fewer tables than threads: run tables sequentially and let
        // each lookup parallelize across its output slots instead.
        for (int64_t t = 0; t < num_tables; ++t)
            lookups.run(t);
    }

    const float *z = cat;
    int64_t zw = catWidth_;
    if (config_.interaction == InteractionKind::Dot) {
        // All pairwise dot products of the stacked [batch, f, d]
        // features, then the Bottom-FC output appended (DLRM's "dot"
        // interaction), written straight into the top MLP's input.
        const int64_t f = config_.featureCount();
        const int64_t pairs = f * (f - 1) / 2;
        zw = pairs + bottom_dim;
        dotInteractionInto(cat, batch, f, config_.emb.embDim, act[cur], zw);
        if (!bottom_.empty())
            copyRows(h, bottom_dim, act[cur] + pairs, zw, batch, bottom_dim);
        z = act[cur];
        cur ^= 1;
    }

    for (size_t i = 0; i < top_.size(); ++i) {
        top_[i].forwardInto(z, batch, act[cur],
                            /*relu=*/i + 1 < top_.size());
        z = act[cur];
        zw = top_[i].outFeatures();
        cur ^= 1;
    }
    Tensor out({batch, zw});
    sigmoidInto(z, batch * zw, out.data());
    return out;
}

ModelInput
RecModel::randomInput(int64_t batch, Rng &rng) const
{
    RP_ASSERT(batch > 0, "batch must be positive");
    ModelInput input;
    if (config_.denseFeatures > 0) {
        input.dense = Tensor({batch, config_.denseFeatures});
        input.dense.fillUniform(rng, -1.0f, 1.0f);
    } else {
        input.dense = Tensor({batch, 0});
    }
    for (int64_t t = 0; t < config_.emb.numTables; ++t) {
        SparseInput sp;
        sp.lengths.assign(static_cast<size_t>(batch),
                          config_.emb.lookupsPerTable);
        for (int64_t i = 0; i < batch * config_.emb.lookupsPerTable; ++i) {
            sp.ids.push_back(static_cast<int64_t>(
                rng.nextBelow(static_cast<uint64_t>(
                    config_.emb.rowsOf(t)))));
        }
        input.sparse.push_back(std::move(sp));
    }
    return input;
}

int64_t
RecModel::paramCount() const
{
    return config_.fcParamCount() + config_.embParamCount();
}

} // namespace recperf
