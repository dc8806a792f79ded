/**
 * @file
 * Tests for heterogeneous per-table embedding sizes (§II-C: single
 * tables span tens of MB to several GB within one model).
 */

#include <gtest/gtest.h>

#include "core/logging.hh"
#include "core/rng.hh"
#include "machine/machine_spec.hh"
#include "model/rec_model.hh"
#include "model/zoo.hh"
#include "serving/distributed.hh"
#include "timing/model_timer.hh"

namespace recperf {
namespace {

ModelConfig
tinyMixed()
{
    ModelConfig m;
    m.name = "tiny-mixed";
    m.modelClass = ModelClass::RMC2;
    m.denseFeatures = 8;
    m.bottomMlp = {8};
    m.emb = {3, 0, 4, 5};
    m.emb.tableRows = {16, 64, 256};
    m.topMlp = {8, 1};
    m.validate();
    return m;
}

TEST(MixedTables, RowsOfHonorsOverride)
{
    ModelConfig m = tinyMixed();
    EXPECT_EQ(m.emb.rowsOf(0), 16);
    EXPECT_EQ(m.emb.rowsOf(2), 256);
    EXPECT_EQ(m.emb.totalRows(), 16 + 64 + 256);
    EXPECT_THROW(m.emb.rowsOf(3), PanicError);
}

TEST(MixedTables, UniformFallback)
{
    EmbeddingConfig e{4, 1000, 32, 80};
    EXPECT_EQ(e.rowsOf(0), 1000);
    EXPECT_EQ(e.totalRows(), 4000);
}

TEST(MixedTables, ValidateChecksSizeMatch)
{
    ModelConfig m = tinyMixed();
    m.emb.tableRows.pop_back();
    EXPECT_THROW(m.validate(), PanicError);
    m = tinyMixed();
    m.emb.tableRows[1] = 0;
    EXPECT_THROW(m.validate(), PanicError);
}

TEST(MixedTables, StorageUsesActualRows)
{
    ModelConfig m = tinyMixed();
    EXPECT_EQ(m.embParamCount(), (16 + 64 + 256) * 4);
    EXPECT_EQ(m.embStorageBytes(), (16 + 64 + 256) * 16);
}

TEST(MixedTables, FunctionalModelAllocatesPerTable)
{
    Rng rng(1);
    RecModel model(tinyMixed(), rng);
    EXPECT_EQ(model.tables()[0].rows(), 16);
    EXPECT_EQ(model.tables()[2].rows(), 256);
    ModelInput input = model.randomInput(4, rng);
    for (size_t t = 0; t < 3; ++t) {
        for (int64_t id : input.sparse[t].ids)
            EXPECT_LT(id, model.tables()[t].rows());
    }
    Tensor ctr = model.forward(input);
    EXPECT_EQ(ctr.shape(), (Shape{4, 1}));
}

TEST(MixedTables, FunctionalScaleCapsOverrides)
{
    ModelConfig m = tinyMixed().functionalScale(32);
    EXPECT_EQ(m.emb.tableRows, (std::vector<int64_t>{16, 32, 32}));
    EXPECT_NE(m.name, tinyMixed().name);
}

TEST(MixedTables, ZooMixedVariantValid)
{
    ModelConfig m = rmc2Mixed();
    EXPECT_EQ(static_cast<int64_t>(m.emb.tableRows.size()),
              m.emb.numTables);
    // Spread spans two orders of magnitude; aggregate near RMC2-small.
    int64_t lo = m.emb.tableRows.front(), hi = lo;
    for (int64_t rows : m.emb.tableRows) {
        lo = std::min(lo, rows);
        hi = std::max(hi, rows);
    }
    EXPECT_GE(hi / lo, 100);
    double gb = m.embStorageBytes() / 1e9;
    EXPECT_GT(gb, 5.0);
    EXPECT_LT(gb, 20.0);
}

TEST(MixedTables, TimerRunsMixedModel)
{
    TimerOptions opts;
    opts.batch = 4;
    ModelTimer timer(broadwell(), rmc2Mixed(), opts);
    ModelTiming t = timer.steadyState(5, 5);
    EXPECT_GT(t.totalSeconds(), 0.0);
    EXPECT_GT(t.fractionByKind(OpKind::SLS), 0.4);
}

TEST(MixedTables, ShardingSpreadsMixedSizes)
{
    // Round-robin dealing keeps per-shard row totals within a small
    // factor of each other despite the 128x table-size spread.
    TimerOptions opts;
    opts.batch = 4;
    ShardedInference sim(broadwell(), rmc2Mixed(), 4, NetworkConfig{},
                         opts);
    RunResult r = sim.run(RunOptions{.warmupIters = 3, .measureIters = 3});
    EXPECT_GT(r.totalSeconds, 0.0);
    EXPECT_GT(r.networkBytes, 0.0);
}

} // namespace
} // namespace recperf
