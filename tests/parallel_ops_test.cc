/**
 * @file
 * Parallel-vs-serial bitwise-equality tests: every parallelized kernel
 * (FC GEMM, SparseLengthsSum, quantized SLS, BatchMatMul, dot
 * interaction, full RecModel forward) must produce
 * outputs bitwise-identical to its 1-thread execution at every thread
 * count — the execution engine's determinism contract. gemmBt, with
 * and without its fused bias + ReLU epilogue, is also held bit for bit
 * to a scalar spelling-out of each pinned ISA tier's arithmetic
 * followed by the unfused bias pass and reluInplace.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <vector>

#include "core/rng.hh"
#include "core/thread_pool.hh"
#include "model/rec_model.hh"
#include "model/zoo.hh"
#include "ops/batch_matmul.hh"
#include "ops/elementwise.hh"
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
 * One output's dot product with the arithmetic @p isa promises
 * (microkernels.hh), spelled out in scalar code: kAcc chains of kLanes
 * lanes stepping over K (fused multiply-adds on the vector tiers), the
 * tier's fixed reduction tree, then the sequential tail. It shares no
 * code with the kernels, so a tile that re-associates any sum, reads
 * the wrong B row or drops a tail term differs from it in some bit.
 */
float
tierDot(KernelIsa isa, const float *x, const float *y, int64_t k)
{
    const bool vector = isa != KernelIsa::Scalar;
    const int lanes = isa == KernelIsa::Avx512 ? 16 : vector ? 8 : 4;
    const int chains = vector ? 2 : 1;
    const int64_t step = static_cast<int64_t>(lanes) * chains;
    const int64_t k_main = k - k % step;
    float acc[2][16] = {};
    for (int64_t p = 0; p < k_main; p += step) {
        for (int h = 0; h < chains; ++h) {
            for (int l = 0; l < lanes; ++l) {
                const int64_t off = p + h * lanes + l;
                float &a = acc[h][l];
                if (vector) {
                    a = std::fma(x[off], y[off], a);
                } else {
                    const float prod = x[off] * y[off];
                    a = a + prod;
                }
            }
        }
    }
    float s[16];
    for (int l = 0; l < lanes; ++l)
        s[l] = chains == 2 ? acc[0][l] + acc[1][l] : acc[0][l];
    float t;
    if (vector) {
        // Halving tree: lane l += lane l + width/2, down to one lane.
        for (int width = lanes; width > 1; width /= 2)
            for (int l = 0; l < width / 2; ++l)
                s[l] = s[l] + s[l + width / 2];
        t = s[0];
    } else {
        t = (s[0] + s[1]) + (s[2] + s[3]);
    }
    for (int64_t p = k_main; p < k; ++p) {
        if (vector) {
            t = std::fma(x[p], y[p], t);
        } else {
            const float prod = x[p] * y[p];
            t = t + prod;
        }
    }
    return t;
}

/**
 * The unfused sequence gemmBt's epilogue replaces: C = A * B^T (plus
 * C when accumulating) with @p isa's arithmetic, then a second pass
 * adding @p bias (if any), then reluInplace (if @p relu). @p dots holds
 * tierDot for every (i, j), computed once per shape.
 */
std::vector<float>
unfusedOracle(const std::vector<float> &dots, std::vector<float> c,
              int64_t m, int64_t n, bool accumulate, const float *bias,
              bool relu)
{
    for (size_t i = 0; i < c.size(); ++i)
        c[i] = accumulate ? c[i] + dots[i] : dots[i];
    if (bias) {
        for (int64_t i = 0; i < m; ++i)
            for (int64_t j = 0; j < n; ++j)
                c[static_cast<size_t>(i * n + j)] += bias[j];
    }
    if (relu) {
        Tensor t({m, n});
        std::memcpy(t.data(), c.data(), c.size() * sizeof(float));
        reluInplace(t);
        std::memcpy(c.data(), t.data(), c.size() * sizeof(float));
    }
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
    const float inf = std::numeric_limits<float>::infinity();
    const float special[] = {-0.0f, std::numeric_limits<float>::quiet_NaN(),
                             inf, -inf};
    for (KernelIsa isa : usableIsas()) {
        KernelCache::global().setPolicy(IsaPolicy{false, isa});
        const int64_t rows = microkernels::kernelsFor(isa).gemmRows;
        // M around the row tile and the mc tiles (m % 4 != 0 included);
        // N around 32- and 64-wide panels (nc-1, nc+1, 2*nc+3), odd
        // included; K across the
        // tail-only (< 32), chain-step, non-multiple-of-64 and deep
        // cases.
        const std::set<int64_t> ms = {1, 3, rows, rows + 1, 63, 64, 65};
        for (int64_t m : ms) {
            for (int64_t n : {1, 31, 33, 63, 65, 67, 131}) {
                for (int64_t k : {1, 31, 64, 100, 257, 2048}) {
                    std::vector<float> a(static_cast<size_t>(m * k));
                    std::vector<float> b(static_cast<size_t>(n * k));
                    std::vector<float> c0(static_cast<size_t>(m * n));
                    std::vector<float> bias(static_cast<size_t>(n));
                    for (float &v : a)
                        v = rng.nextFloat(-1.0f, 1.0f);
                    for (float &v : b)
                        v = rng.nextFloat(-1.0f, 1.0f);
                    for (float &v : c0)
                        v = rng.nextFloat(-1.0f, 1.0f);
                    for (size_t j = 0; j < bias.size(); ++j)
                        bias[j] = j < 4 ? special[j]
                                        : rng.nextFloat(-1.0f, 1.0f);
                    std::vector<float> dots(c0.size());
                    for (int64_t i = 0; i < m; ++i)
                        for (int64_t j = 0; j < n; ++j)
                            dots[static_cast<size_t>(i * n + j)] = tierDot(
                                isa, a.data() + i * k, b.data() + j * k, k);
                    for (bool accumulate : {false, true}) {
                        for (bool fused : {false, true}) {
                            const float *bp = fused ? bias.data() : nullptr;
                            const std::vector<float> want = unfusedOracle(
                                dots, c0, m, n, accumulate, bp, fused);
                            for (int threads : {1, 2, 4}) {
                                setGlobalThreadCount(threads);
                                std::vector<float> c = c0;
                                gemmBt(a.data(), b.data(), c.data(), m, n, k,
                                       accumulate, {bp, fused});
                                ASSERT_EQ(0,
                                          std::memcmp(want.data(), c.data(),
                                                      c.size() *
                                                          sizeof(float)))
                                    << kernelIsaName(isa) << " m" << m
                                    << " n" << n << " k" << k
                                    << " accumulate " << accumulate
                                    << " bias+relu " << fused << " at "
                                    << threads << " threads";
                            }
                        }
                    }
                }
            }
        }
    }
}

TEST_F(ParallelOpsTest, GemmBtEpilogueOnEmptySums)
{
    // k = 0: every sum is empty, so the output is the epilogue of +0.0
    // (or of the untouched old C value when accumulating).
    const float bias[] = {-0.0f, -2.0f, 3.0f};
    std::vector<float> c = {-0.0f, 5.0f, -7.0f};
    gemmBt(nullptr, nullptr, c.data(), 1, 3, 0, /*accumulate=*/true,
           {bias, true});
    EXPECT_TRUE(std::signbit(c[0]) && c[0] == 0.0f); // -0.0 + -0.0
    EXPECT_EQ(c[1], 3.0f);
    EXPECT_EQ(c[2], 0.0f);
    gemmBt(nullptr, nullptr, c.data(), 1, 3, 0, /*accumulate=*/false,
           {bias, false});
    EXPECT_FALSE(std::signbit(c[0])); // +0.0 + -0.0
    EXPECT_EQ(c[1], -2.0f);
    EXPECT_EQ(c[2], 3.0f);
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
