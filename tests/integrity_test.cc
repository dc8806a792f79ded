/**
 * @file
 * Functional integrity-layer tests: per-row checksums over fp32 and
 * quantized embedding state (scale/bias bytes included), corruption
 * primitives, golden-copy repair, inline sampled verification on the
 * SLS hot path, and the disabled-layer contract — bitwise-identical
 * output at every thread count with zero verification work.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "core/rng.hh"
#include "core/thread_pool.hh"
#include "model/rec_model.hh"
#include "model/zoo.hh"
#include "obs/metrics.hh"
#include "ops/fully_connected.hh"
#include "ops/integrity.hh"
#include "ops/quantized_embedding.hh"
#include "ops/sparse_lengths_sum.hh"
#include "tensor/tensor.hh"

namespace recperf {
namespace {

class IntegrityTest : public ::testing::Test
{
  protected:
    void TearDown() override { setGlobalThreadCount(0); }
};

EmbeddingTable
makeTable(int64_t rows, int64_t dim, uint64_t seed = 7)
{
    Rng rng(seed);
    return EmbeddingTable(rows, dim, rng);
}

// Pooled lookup covering rows [0, rows): `slots` slots of `per` IDs.
void
makeLookup(int64_t rows, int64_t slots, int64_t per, uint64_t seed,
           std::vector<int64_t> &ids, std::vector<int64_t> &lengths)
{
    Rng rng(seed);
    ids.clear();
    lengths.assign(static_cast<size_t>(slots), per);
    for (int64_t i = 0; i < slots * per; ++i)
        ids.push_back(static_cast<int64_t>(
            rng.nextBelow(static_cast<uint64_t>(rows))));
}

TEST_F(IntegrityTest, SealVerifyAndScanFp32)
{
    EmbeddingTable table = makeTable(64, 16);
    IntegrityShield shield = IntegrityShield::forTable(table);
    shield.seal();
    EXPECT_EQ(shield.rows(), 64);
    EXPECT_EQ(shield.rowBytes(), 16u * sizeof(float));
    EXPECT_TRUE(shield.scanCorrupted().empty());

    shield.flipBit(17, 5);
    EXPECT_FALSE(shield.verifyRow(17));
    EXPECT_TRUE(shield.verifyRow(16));
    std::vector<int64_t> bad = shield.scanCorrupted();
    ASSERT_EQ(bad.size(), 1u);
    EXPECT_EQ(bad[0], 17);

    // Repair restores the golden bytes bit-exactly.
    EXPECT_TRUE(shield.repairRow(17));
    EXPECT_TRUE(shield.verifyRow(17));
    EXPECT_FALSE(shield.repairRow(17)); // already clean
}

TEST_F(IntegrityTest, FlipBitIsitsOwnInverse)
{
    EmbeddingTable table = makeTable(8, 4);
    std::vector<float> before(
        table.table().data(),
        table.table().data() + table.paramCount());
    IntegrityShield shield = IntegrityShield::forTable(table);
    shield.seal();
    shield.flipBit(3, 21);
    EXPECT_FALSE(shield.verifyRow(3));
    shield.flipBit(3, 21);
    EXPECT_TRUE(shield.verifyRow(3));
    EXPECT_EQ(std::memcmp(before.data(), table.table().data(),
                          before.size() * sizeof(float)),
              0);
}

TEST_F(IntegrityTest, CorruptionKindsFlipReportedBits)
{
    EmbeddingTable table = makeTable(32, 8);
    IntegrityShield shield = IntegrityShield::forTable(table);
    shield.seal();
    Rng rng(11);
    EXPECT_EQ(shield.corrupt(CorruptionKind::SingleBitFlip, 1, 0, rng),
              1);
    EXPECT_FALSE(shield.verifyRow(1));
    EXPECT_EQ(shield.corrupt(CorruptionKind::MultiBitFlip, 2, 9, rng),
              3);
    EXPECT_FALSE(shield.verifyRow(2));
    // Stuck-at-one rows read back as NaN fp32 lanes.
    shield.corrupt(CorruptionKind::StuckRow, 3, 0, rng);
    EXPECT_FALSE(shield.verifyRow(3));
    const float *row = table.table().data() + 3 * table.dim();
    for (int64_t c = 0; c < table.dim(); ++c)
        EXPECT_TRUE(std::isnan(row[c]));
    for (int64_t r : {1, 2, 3})
        shield.repairRow(r);
    EXPECT_TRUE(shield.scanCorrupted().empty());
}

// Satellite: quantized-row checksums span the int8 payload AND the
// fp32 scale/bias — a flip in any of the three is detected equally.
TEST_F(IntegrityTest, QuantizedChecksumCoversPayloadScaleAndBias)
{
    EmbeddingTable source = makeTable(40, 24);
    QuantizedEmbeddingTable qtable(source);
    IntegrityShield shield = IntegrityShield::forQuantized(qtable);
    shield.seal();
    EXPECT_EQ(shield.rowBytes(),
              static_cast<size_t>(qtable.rowBytes()));
    EXPECT_TRUE(shield.scanCorrupted().empty());

    const size_t payload_bits = static_cast<size_t>(qtable.dim()) * 8;
    struct Case
    {
        const char *what;
        int64_t row;
        uint64_t bit;
    } cases[] = {
        {"int8 payload", 5, 3},
        {"scale field", 6, payload_bits + 7},
        {"bias field", 7, payload_bits + 32 + 19},
    };
    for (const Case &c : cases) {
        shield.flipBit(c.row, c.bit);
        EXPECT_FALSE(shield.verifyRow(c.row)) << c.what;
        std::vector<int64_t> bad = shield.scanCorrupted();
        ASSERT_EQ(bad.size(), 1u) << c.what;
        EXPECT_EQ(bad[0], c.row) << c.what;
        EXPECT_TRUE(shield.repairRow(c.row)) << c.what;
        EXPECT_TRUE(shield.verifyRow(c.row)) << c.what;
    }
}

TEST_F(IntegrityTest, ScaleFlipCorruptsDequantizedOutputUntilRepair)
{
    EmbeddingTable source = makeTable(16, 8);
    QuantizedEmbeddingTable qtable(source);
    IntegrityShield shield = IntegrityShield::forQuantized(qtable);
    shield.seal();
    std::vector<float> clean(static_cast<size_t>(qtable.dim()));
    qtable.dequantizeRow(4, clean.data());
    // Flip the scale's top mantissa-adjacent bit: every element of the
    // dequantized row moves, though nothing in the payload changed.
    shield.flipBit(4, static_cast<uint64_t>(qtable.dim()) * 8 + 30);
    std::vector<float> dirty(static_cast<size_t>(qtable.dim()));
    qtable.dequantizeRow(4, dirty.data());
    EXPECT_NE(std::memcmp(clean.data(), dirty.data(),
                          clean.size() * sizeof(float)),
              0);
    shield.repairRow(4);
    qtable.dequantizeRow(4, dirty.data());
    EXPECT_EQ(std::memcmp(clean.data(), dirty.data(),
                          clean.size() * sizeof(float)),
              0);
}

TEST_F(IntegrityTest, FcShieldCoversWeightAndBias)
{
    Rng rng(3);
    FullyConnected layer(12, 6, rng);
    IntegrityShield shield = IntegrityShield::forLayer(layer);
    shield.seal();
    EXPECT_EQ(shield.rows(), 6);
    shield.flipBit(2, 4);                 // weight byte
    shield.flipBit(5, 12 * 32 + 1);       // bias bits follow the row
    std::vector<int64_t> bad = shield.scanCorrupted();
    ASSERT_EQ(bad.size(), 2u);
    EXPECT_EQ(bad[0], 2);
    EXPECT_EQ(bad[1], 5);
    for (int64_t r : bad)
        EXPECT_TRUE(shield.repairRow(r));
    EXPECT_TRUE(shield.scanCorrupted().empty());
}

TEST_F(IntegrityTest, InlineVerificationDetectsAndRepairsOnHotPath)
{
    EmbeddingTable table = makeTable(128, 16);
    std::vector<int64_t> ids, lengths;
    makeLookup(128, 8, 4, 23, ids, lengths);
    Tensor clean = table.forward(ids, lengths);

    IntegrityShield shield = IntegrityShield::forTable(table);
    shield.seal();
    // Corrupt a row the lookup touches.
    shield.flipBit(ids[0], 13);
    InlineVerifier verifier(shield, 1.0, /*repair_on_detect=*/true);
    table.setVerifier(&verifier);

    Tensor healed = table.forward(ids, lengths);
    InlineVerifyStats stats = verifier.stats();
    EXPECT_EQ(stats.batches, 1u);
    EXPECT_EQ(stats.verifiedBatches, 1u);
    EXPECT_EQ(stats.detected, 1u);
    EXPECT_EQ(stats.repaired, 1u);
    // Repair happened before the gather: output matches the clean run.
    EXPECT_EQ(std::memcmp(clean.data(), healed.data(),
                          static_cast<size_t>(clean.size()) *
                              sizeof(float)),
              0);
    EXPECT_TRUE(shield.scanCorrupted().empty());

    obs::MetricsRegistry reg;
    stats.exportTo(reg);
    obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counter("integrity.inline.detected"), 1u);
    EXPECT_EQ(snap.counter("integrity.inline.repaired"), 1u);
}

TEST_F(IntegrityTest, QuantizedInlineHookVerifiesSampledBatches)
{
    EmbeddingTable source = makeTable(96, 8);
    QuantizedEmbeddingTable qtable(source);
    IntegrityShield shield = IntegrityShield::forQuantized(qtable);
    shield.seal();
    shield.flipBit(7, 2);
    InlineVerifier verifier(shield, 1.0);
    qtable.setVerifier(&verifier);
    std::vector<int64_t> ids = {7, 8, 9}, lengths = {3};
    (void)qtable.forward(ids, lengths);
    EXPECT_EQ(verifier.stats().detected, 1u);
    EXPECT_EQ(verifier.stats().repaired, 1u);
    EXPECT_TRUE(shield.verifyRow(7));
}

TEST_F(IntegrityTest, SamplingScheduleIsDeterministicAcrossThreadCounts)
{
    std::vector<int64_t> ids, lengths;
    for (int threads : {1, 4}) {
        setGlobalThreadCount(threads);
        EmbeddingTable table = makeTable(64, 8);
        IntegrityShield shield = IntegrityShield::forTable(table);
        shield.seal();
        InlineVerifier verifier(shield, 0.25); // every 4th batch
        table.setVerifier(&verifier);
        for (int batch = 0; batch < 10; ++batch) {
            makeLookup(64, 4, 4, 100 + static_cast<uint64_t>(batch),
                       ids, lengths);
            (void)table.forward(ids, lengths);
        }
        EXPECT_EQ(verifier.stats().batches, 10u) << threads << " threads";
        EXPECT_EQ(verifier.stats().verifiedBatches, 2u)
            << threads << " threads";
    }
}

// The integrity layer is bitwise invisible: a table with a verifier
// on clean rows and a table without one give the same output at 1 and
// 4 worker threads, and a verifier no table holds sees no batch.
TEST_F(IntegrityTest, DisabledLayerIsBitwiseInvisible)
{
    std::vector<int64_t> ids, lengths;
    makeLookup(256, 16, 5, 42, ids, lengths);
    std::vector<float> want;
    for (int threads : {1, 4}) {
        setGlobalThreadCount(threads);
        for (bool verified : {false, true}) {
            EmbeddingTable table = makeTable(256, 32);
            IntegrityShield shield = IntegrityShield::forTable(table);
            shield.seal();
            InlineVerifier verifier(shield, 1.0);
            if (verified)
                table.setVerifier(&verifier);
            Tensor out = table.forward(ids, lengths);
            EXPECT_EQ(verifier.stats().batches, verified ? 1u : 0u);
            EXPECT_EQ(verifier.stats().detected, 0u);
            std::vector<float> got(out.data(), out.data() + out.size());
            if (want.empty())
                want = got;
            else
                EXPECT_EQ(std::memcmp(want.data(), got.data(),
                                      want.size() * sizeof(float)),
                          0)
                    << threads << " threads, verified " << verified;
        }
    }
}

// Each table's verifier counts only its own lookups, also when the
// model gathers its tables on parallel workers.
TEST_F(IntegrityTest, PerTableVerifiersUnderParallelForward)
{
    setGlobalThreadCount(4);
    ModelConfig cfg = rmc2Small().functionalScale(512);
    Rng rng(3);
    RecModel model(cfg, rng);
    ModelInput input = model.randomInput(8, rng);
    std::vector<std::unique_ptr<IntegrityShield>> shields;
    std::vector<std::unique_ptr<InlineVerifier>> verifiers;
    for (EmbeddingTable &table : model.tables()) {
        shields.push_back(std::make_unique<IntegrityShield>(
            IntegrityShield::forTable(table)));
        shields.back()->seal();
        verifiers.push_back(
            std::make_unique<InlineVerifier>(*shields.back(), 0.5));
        table.setVerifier(verifiers.back().get());
    }
    for (int i = 0; i < 4; ++i)
        (void)model.forward(input);
    ASSERT_GE(verifiers.size(), 4u);
    for (const std::unique_ptr<InlineVerifier> &v : verifiers) {
        EXPECT_EQ(v->stats().batches, 4u);
        EXPECT_EQ(v->stats().verifiedBatches, 2u);
    }
}

TEST_F(IntegrityTest, EnvelopeCountsNanInfAndRange)
{
    std::vector<float> x = {0.5f, -2.0f,
                            std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -150.0f, 3.0f};
    EnvelopeStats stats;
    checkEnvelope(x.data(), x.size(), 100.0f, stats);
    EXPECT_EQ(stats.checked, 6u);
    EXPECT_EQ(stats.nans, 1u);
    EXPECT_EQ(stats.infs, 1u);
    EXPECT_EQ(stats.range, 1u);
    EXPECT_FALSE(stats.clean());

    EnvelopeStats unbounded;
    checkEnvelope(x.data(), 2, 0.0f, unbounded); // no magnitude bound
    EXPECT_TRUE(unbounded.clean());
}

TEST_F(IntegrityTest, Fnv1aMatchesKnownVectors)
{
    // Standard FNV-1a 64 test vectors.
    EXPECT_EQ(fnv1a("", 0), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a("a", 1), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv1a("foobar", 6), 0x85944171f73967e8ULL);
}

} // namespace
} // namespace recperf
