/**
 * @file
 * Unit tests for the functional recommendation model (Fig 3 execution
 * flow: Bottom-FC, embedding pooling, Concat, Top-FC, sigmoid CTR).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "core/logging.hh"
#include "core/rng.hh"
#include "model/rec_model.hh"
#include "model/zoo.hh"
#include "ops/elementwise.hh"
#include "ops/reference.hh"

namespace recperf {
namespace {

ModelConfig
tinyConfig()
{
    ModelConfig m;
    m.name = "tiny";
    m.modelClass = ModelClass::RMC1;
    m.denseFeatures = 8;
    m.bottomMlp = {16, 4};
    m.emb = {3, 64, 4, 5};
    m.topMlp = {8, 1};
    m.validate();
    return m;
}

TEST(RecModel, OutputShapeAndRange)
{
    Rng rng(1);
    RecModel model(tinyConfig(), rng);
    ModelInput input = model.randomInput(6, rng);
    Tensor ctr = model.forward(input);
    EXPECT_EQ(ctr.shape(), (Shape{6, 1}));
    for (int64_t i = 0; i < ctr.size(); ++i) {
        EXPECT_GT(ctr.at(i), 0.0f);
        EXPECT_LT(ctr.at(i), 1.0f);
    }
}

TEST(RecModel, DeterministicForSameSeed)
{
    Rng rng_a(7), rng_b(7);
    RecModel a(tinyConfig(), rng_a), b(tinyConfig(), rng_b);
    Rng in_a(3), in_b(3);
    ModelInput ia = a.randomInput(4, in_a);
    ModelInput ib = b.randomInput(4, in_b);
    EXPECT_TRUE(a.forward(ia).allClose(b.forward(ib)));
}

TEST(RecModel, DifferentSeedsDiffer)
{
    Rng rng_a(7), rng_b(8), rng_in(3);
    RecModel a(tinyConfig(), rng_a), b(tinyConfig(), rng_b);
    ModelInput input = a.randomInput(4, rng_in);
    EXPECT_FALSE(a.forward(input).allClose(b.forward(input)));
}

TEST(RecModel, BatchConsistency)
{
    // Scoring a batch equals scoring each sample alone (no cross-batch
    // leakage).
    Rng rng(11);
    RecModel model(tinyConfig(), rng);
    Rng in_rng(5);
    ModelInput batch = model.randomInput(3, in_rng);
    Tensor full = model.forward(batch);

    for (int64_t s = 0; s < 3; ++s) {
        ModelInput single;
        single.dense = Tensor({1, batch.dense.dim(1)});
        for (int64_t c = 0; c < batch.dense.dim(1); ++c)
            single.dense.at(0, c) = batch.dense.at(s, c);
        for (const SparseInput &sp : batch.sparse) {
            SparseInput one;
            size_t start = 0;
            for (int64_t prev = 0; prev < s; ++prev)
                start += static_cast<size_t>(sp.lengths[prev]);
            one.lengths = {sp.lengths[s]};
            for (int64_t j = 0; j < sp.lengths[s]; ++j)
                one.ids.push_back(sp.ids[start + j]);
            single.sparse.push_back(std::move(one));
        }
        Tensor ctr = model.forward(single);
        EXPECT_NEAR(ctr.at(static_cast<int64_t>(0)), full.at(s, 0), 1e-5f);
    }
}

TEST(RecModel, ManualForwardMatchesComposition)
{
    // Cross-check the full pipeline against a by-hand composition of
    // the reference operators.
    ModelConfig cfg = tinyConfig();
    Rng rng(13);
    RecModel model(cfg, rng);
    Rng in_rng(17);
    ModelInput input = model.randomInput(2, in_rng);

    Tensor z = input.dense.reshaped(input.dense.shape());
    for (const FullyConnected &fc : model.bottomLayers())
        z = relu(reference::fullyConnected(z, fc.weight(), fc.bias()));

    std::vector<Tensor> pooled;
    for (size_t t = 0; t < model.tables().size(); ++t) {
        pooled.push_back(reference::sparseLengthsSum(
            model.tables()[t].table(), input.sparse[t].ids,
            input.sparse[t].lengths));
    }
    std::vector<const Tensor *> feats = {&z};
    for (const Tensor &p : pooled)
        feats.push_back(&p);
    Tensor joined = concatCols(feats);
    const auto &top = model.topLayers();
    for (size_t i = 0; i < top.size(); ++i) {
        joined = reference::fullyConnected(joined, top[i].weight(),
                                           top[i].bias());
        if (i + 1 < top.size())
            reluInplace(joined);
    }
    Tensor want = sigmoid(joined);

    EXPECT_TRUE(model.forward(input).allClose(want, 1e-4f));
}

TEST(RecModel, RejectsWrongDenseWidth)
{
    Rng rng(1);
    RecModel model(tinyConfig(), rng);
    ModelInput input = model.randomInput(2, rng);
    input.dense = Tensor({2, 5});
    EXPECT_THROW(model.forward(input), PanicError);
}

TEST(RecModel, RejectsWrongTableCount)
{
    Rng rng(1);
    RecModel model(tinyConfig(), rng);
    ModelInput input = model.randomInput(2, rng);
    input.sparse.pop_back();
    EXPECT_THROW(model.forward(input), PanicError);
}

TEST(RecModel, RejectsBatchMismatchAcrossTables)
{
    Rng rng(1);
    RecModel model(tinyConfig(), rng);
    ModelInput input = model.randomInput(2, rng);
    input.sparse[1].lengths.push_back(0);
    EXPECT_THROW(model.forward(input), PanicError);
}

TEST(RecModel, ParamCountMatchesConfig)
{
    Rng rng(1);
    ModelConfig cfg = tinyConfig();
    RecModel model(cfg, rng);
    EXPECT_EQ(model.paramCount(),
              cfg.fcParamCount() + cfg.embParamCount());
}

TEST(RecModel, FunctionalScaleZooRuns)
{
    // Every zoo model executes functionally at reduced embedding scale.
    Rng rng(23);
    for (const ModelConfig &cfg : representativeModels()) {
        ModelConfig scaled = cfg.functionalScale(512);
        RecModel model(scaled, rng);
        ModelInput input = model.randomInput(2, rng);
        Tensor ctr = model.forward(input);
        EXPECT_EQ(ctr.shape(), (Shape{2, 1})) << cfg.name;
    }
}

TEST(RecModel, RandomInputWellFormed)
{
    Rng rng(29);
    ModelConfig cfg = tinyConfig();
    RecModel model(cfg, rng);
    ModelInput input = model.randomInput(5, rng);
    EXPECT_EQ(input.dense.dim(0), 5);
    EXPECT_EQ(static_cast<int64_t>(input.sparse.size()), cfg.emb.numTables);
    for (const SparseInput &sp : input.sparse) {
        EXPECT_EQ(sp.lengths.size(), 5u);
        EXPECT_EQ(sp.ids.size(),
                  static_cast<size_t>(5 * cfg.emb.lookupsPerTable));
        for (int64_t id : sp.ids) {
            EXPECT_GE(id, 0);
            EXPECT_LT(id, cfg.emb.rowsPerTable);
        }
    }
}

bool
bitwiseEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
        std::memcmp(a.data(), b.data(),
                    static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

TEST(RecModelArena, ConcurrentForwardsMatchSerial)
{
    // forward() is const and keeps its activation buffers per thread:
    // two threads running batches 16 and 64 at once, each switching
    // batch sizes, must reproduce the serial outputs bit for bit. RMC1
    // keeps the test quick under ThreadSanitizer; its dot-interaction
    // twin covers the interaction buffer.
    ModelConfig dot = rmc1Small();
    dot.name = "RMC1-dot";
    dot.interaction = InteractionKind::Dot;
    for (const ModelConfig &full : {rmc1Small(), dot}) {
        Rng rng(17);
        RecModel model(full.functionalScale(), rng);
        const std::vector<ModelInput> inputs = {model.randomInput(16, rng),
                                                model.randomInput(64, rng)};
        std::vector<Tensor> serial;
        for (const ModelInput &in : inputs)
            serial.push_back(model.forward(in));

        bool ok[2] = {true, true};
        auto worker = [&](int id) {
            for (int rep = 0; rep < 4; ++rep) {
                const size_t which = static_cast<size_t>((id + rep) % 2);
                if (!bitwiseEqual(model.forward(inputs[which]),
                                  serial[which]))
                    ok[id] = false;
            }
        };
        std::thread a(worker, 0), b(worker, 1);
        a.join();
        b.join();
        EXPECT_TRUE(ok[0]) << full.name;
        EXPECT_TRUE(ok[1]) << full.name;
    }
}

} // namespace
} // namespace recperf
