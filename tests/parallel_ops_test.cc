/**
 * @file
 * Parallel-vs-serial bitwise-equality tests: every parallelized kernel
 * (FC GEMM, SparseLengthsSum, quantized SLS, BatchMatMul, dot
 * interaction, full RecModel forward) must produce
 * outputs bitwise-identical to its 1-thread execution at every thread
 * count — the execution engine's determinism contract.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/rng.hh"
#include "core/thread_pool.hh"
#include "model/rec_model.hh"
#include "model/zoo.hh"
#include "ops/batch_matmul.hh"
#include "ops/fully_connected.hh"
#include "ops/quantized_embedding.hh"
#include "ops/sparse_lengths_sum.hh"
#include "tensor/tensor.hh"

namespace recperf {
namespace {

const std::vector<int> kThreadCounts = {2, 3, 4, 8};

class ParallelOpsTest : public ::testing::Test
{
  protected:
    void TearDown() override { setGlobalThreadCount(0); }

    static ::testing::AssertionResult
    bitwiseEqual(const Tensor &a, const Tensor &b)
    {
        if (a.shape() != b.shape()) {
            return ::testing::AssertionFailure()
                << "shape mismatch " << shapeToString(a.shape())
                << " vs " << shapeToString(b.shape());
        }
        if (a.size() > 0 &&
            std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.size()) *
                            sizeof(float)) != 0) {
            for (int64_t i = 0; i < a.size(); ++i) {
                if (std::memcmp(&a.data()[i], &b.data()[i],
                                sizeof(float)) != 0) {
                    return ::testing::AssertionFailure()
                        << "first difference at flat index " << i
                        << ": " << a.data()[i] << " vs " << b.data()[i];
                }
            }
        }
        return ::testing::AssertionSuccess();
    }

    /**
     * Runs @p compute once per thread count and asserts the output is
     * bitwise-identical to the 1-thread result.
     */
    template <typename Fn>
    void
    expectThreadInvariant(Fn compute)
    {
        setGlobalThreadCount(1);
        Tensor serial = compute();
        for (int threads : kThreadCounts) {
            setGlobalThreadCount(threads);
            Tensor parallel = compute();
            EXPECT_TRUE(bitwiseEqual(serial, parallel))
                << "at " << threads << " threads";
        }
    }
};

TEST_F(ParallelOpsTest, GemmBtBitwise)
{
    Rng rng(11);
    // Deliberately awkward sizes: partial M panels, partial N/K blocks.
    for (auto [m, n, k] : {std::tuple<int64_t, int64_t, int64_t>{1, 1, 1},
                           {3, 5, 7},
                           {33, 31, 257},
                           {128, 64, 300},
                           {70, 130, 515}}) {
        Tensor a({m, k}), b({n, k});
        a.fillUniform(rng, -1.0f, 1.0f);
        b.fillUniform(rng, -1.0f, 1.0f);
        expectThreadInvariant([&] {
            Tensor c({m, n});
            gemmBt(a.data(), b.data(), c.data(), m, n, k,
                   /*accumulate=*/false);
            return c;
        });
        // Accumulate path on a non-zero C.
        Tensor seeded({m, n});
        seeded.fillUniform(rng, -1.0f, 1.0f);
        expectThreadInvariant([&] {
            Tensor c = seeded.reshaped(seeded.shape());
            gemmBt(a.data(), b.data(), c.data(), m, n, k,
                   /*accumulate=*/true);
            return c;
        });
    }
}

TEST_F(ParallelOpsTest, FullyConnectedBitwise)
{
    Rng rng(12);
    FullyConnected fc(96, 72, rng);
    Tensor x({65, 96});
    x.fillUniform(rng, -1.0f, 1.0f);
    expectThreadInvariant([&] { return fc.forward(x); });
}

TEST_F(ParallelOpsTest, SparseLengthsSumBitwise)
{
    Rng rng(13);
    EmbeddingTable table(1000, 48, rng);
    std::vector<int64_t> lengths, ids;
    for (int64_t slot = 0; slot < 77; ++slot) {
        int64_t len = static_cast<int64_t>(rng.nextBelow(31)); // incl. 0
        lengths.push_back(len);
        for (int64_t j = 0; j < len; ++j)
            ids.push_back(static_cast<int64_t>(rng.nextBelow(1000)));
    }
    for (SlsReduction red : {SlsReduction::Sum, SlsReduction::Mean}) {
        expectThreadInvariant(
            [&] { return table.forward(ids, lengths, red); });
    }
}

TEST_F(ParallelOpsTest, QuantizedSlsBitwise)
{
    Rng rng(14);
    EmbeddingTable source(500, 32, rng);
    QuantizedEmbeddingTable table(source);
    std::vector<int64_t> lengths, ids;
    for (int64_t slot = 0; slot < 64; ++slot) {
        int64_t len = static_cast<int64_t>(rng.nextBelow(20));
        lengths.push_back(len);
        for (int64_t j = 0; j < len; ++j)
            ids.push_back(static_cast<int64_t>(rng.nextBelow(500)));
    }
    expectThreadInvariant([&] { return table.forward(ids, lengths); });
}

TEST_F(ParallelOpsTest, BatchMatMulBitwise)
{
    Rng rng(15);
    // batch >= threads exercises the inter-op path; batch 1 exercises
    // the intra-op (row-parallel gemm) path.
    for (int64_t batch : {1ll, 2ll, 16ll}) {
        Tensor a({batch, 33, 129}), b({batch, 17, 129});
        a.fillUniform(rng, -1.0f, 1.0f);
        b.fillUniform(rng, -1.0f, 1.0f);
        expectThreadInvariant([&] { return batchMatMulBt(a, b); });
    }
}

TEST_F(ParallelOpsTest, DotInteractionBitwise)
{
    Rng rng(16);
    Tensor features({67, 9, 32});
    features.fillUniform(rng, -1.0f, 1.0f);
    expectThreadInvariant([&] { return dotInteraction(features); });
}

TEST_F(ParallelOpsTest, RecModelForwardBitwise)
{
    // Full inter-op + intra-op path: bottom FC stack, fanned table
    // lookups, interaction, top FC stack.
    Rng model_rng(19);
    ModelConfig cfg = rmc1Small().functionalScale(2048);
    RecModel model(cfg, model_rng);
    Rng input_rng(20);
    ModelInput input = model.randomInput(32, input_rng);
    expectThreadInvariant([&] { return model.forward(input); });
}

TEST_F(ParallelOpsTest, RecModelDotInteractionBitwise)
{
    Rng model_rng(21);
    ModelConfig cfg = rmc3Dot().functionalScale(1024);
    RecModel model(cfg, model_rng);
    Rng input_rng(22);
    ModelInput input = model.randomInput(16, input_rng);
    expectThreadInvariant([&] { return model.forward(input); });
}

} // namespace
} // namespace recperf
