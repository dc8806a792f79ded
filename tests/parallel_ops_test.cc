/**
 * @file
 * Parallel-vs-serial bitwise-equality tests: every parallelized kernel
 * (FC GEMM, SparseLengthsSum, quantized SLS, BatchMatMul, dot
 * interaction, full RecModel forward) must produce
 * outputs bitwise-identical to its 1-thread execution at every thread
 * count — the execution engine's determinism contract. gemmBt is also
 * held bit for bit to a serial one-row-at-a-time oracle under every
 * pinned ISA tier.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "core/aligned.hh"
#include "core/rng.hh"
#include "core/thread_pool.hh"
#include "model/rec_model.hh"
#include "model/zoo.hh"
#include "ops/batch_matmul.hh"
#include "ops/fully_connected.hh"
#include "ops/kernel_cache.hh"
#include "ops/microkernels.hh"
#include "ops/quantized_embedding.hh"
#include "ops/sparse_lengths_sum.hh"
#include "tensor/tensor.hh"

namespace recperf {
namespace {

const std::vector<int> kThreadCounts = {2, 3, 4, 8};

/** ISA tiers usable on this host *and* compiled into this binary. */
std::vector<KernelIsa>
usableIsas()
{
    std::vector<KernelIsa> isas;
    for (int t = 0; t <= static_cast<int>(detectIsa()); ++t) {
        const KernelIsa isa = static_cast<KernelIsa>(t);
        if (microkernels::kernelsFor(isa).available)
            isas.push_back(isa);
    }
    return isas;
}

/**
 * Serial oracle for gemmBt under a pinned @p isa: all of B packed as
 * one panel at the smallest chunk size, then one gemmRow call per A
 * row with one-column tiles. That tiling is one gemmBt never picks, so
 * a task grid or register tile that re-associates any sum differs from
 * it in some bit.
 */
std::vector<float>
gemmRowOracle(KernelIsa isa, const float *a, const float *b,
              std::vector<float> c, int64_t m, int64_t n, int64_t k,
              bool accumulate)
{
    const int64_t kc = microkernels::kKcQuantum;
    AlignedBuffer<float> pack(static_cast<size_t>(
        microkernels::gemmPackFloats(n, k, kc)));
    microkernels::gemmPackPanel(b, k, 0, n, kc, pack.data());
    const microkernels::GemmRowFn row =
        microkernels::kernelsFor(isa).gemmRow;
    for (int64_t i = 0; i < m; ++i)
        row(a + i * k, pack.data(), c.data() + i * n, n, k, kc, 1,
            accumulate);
    return c;
}

class ParallelOpsTest : public ::testing::Test
{
  protected:
    void SetUp() override { policy_ = KernelCache::global().policy(); }

    void
    TearDown() override
    {
        setGlobalThreadCount(0);
        KernelCache::global().setPolicy(policy_);
    }

    IsaPolicy policy_;

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

TEST_F(ParallelOpsTest, GemmBtMatchesSerialRowOracle)
{
    Rng rng(23);
    for (KernelIsa isa : usableIsas()) {
        KernelCache::global().setPolicy(IsaPolicy{false, isa});
        const int64_t rows = microkernels::kernelsFor(isa).gemmRows;
        // M around the row tile and the mc tiles; N around both panel
        // widths the tuner picks from (nc 32 and 64: nc-1, nc+1,
        // 2*nc+3); K across the tail-only, chunk-edge and deep cases.
        const std::set<int64_t> ms = {1, 3, rows, rows + 1, 63, 64, 65};
        for (int64_t m : ms) {
            for (int64_t n : {1, 31, 33, 63, 65, 67, 131}) {
                for (int64_t k : {1, 31, 64, 100, 257, 2048}) {
                    std::vector<float> a(static_cast<size_t>(m * k));
                    std::vector<float> b(static_cast<size_t>(n * k));
                    std::vector<float> c0(static_cast<size_t>(m * n));
                    for (float &v : a)
                        v = rng.nextFloat(-1.0f, 1.0f);
                    for (float &v : b)
                        v = rng.nextFloat(-1.0f, 1.0f);
                    for (float &v : c0)
                        v = rng.nextFloat(-1.0f, 1.0f);
                    for (bool accumulate : {false, true}) {
                        const std::vector<float> want =
                            gemmRowOracle(isa, a.data(), b.data(), c0, m,
                                          n, k, accumulate);
                        for (int threads : {1, 2, 3, 4}) {
                            setGlobalThreadCount(threads);
                            std::vector<float> c = c0;
                            gemmBt(a.data(), b.data(), c.data(), m, n, k,
                                   accumulate);
                            ASSERT_EQ(0, std::memcmp(want.data(), c.data(),
                                                     c.size() *
                                                         sizeof(float)))
                                << kernelIsaName(isa) << " m" << m << " n"
                                << n << " k" << k << " accumulate "
                                << accumulate << " at " << threads
                                << " threads";
                        }
                    }
                }
            }
        }
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
