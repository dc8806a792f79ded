#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "alloc_count.hh"
#include "core/rng.hh"
#include "fwd.hh"
#include "model/zoo.hh"
#include "report.hh"
#include "sim.hh"
#include "stats.hh"

using namespace perfbench;

TEST(Tail, HighestPercentileWithTenSamplesBeyond)
{
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    Tail t = tailPercentile(v);
    EXPECT_EQ(t.value, 90.0);
    EXPECT_EQ(t.beyond, 10u);
    EXPECT_DOUBLE_EQ(t.pct, 100.0 * 89.0 / 99.0);
    // Any higher percentile interpolates towards sample 91, which has
    // only nine samples beyond it.
    EXPECT_GT(percentile(v, t.pct + 0.5), 90.0);
    EXPECT_DOUBLE_EQ(percentile(v, t.pct), 90.0);
}

TEST(Tail, SmallSamples)
{
    Tail eleven = tailPercentile({5, 4, 3, 2, 1, 6, 7, 8, 9, 10, 11});
    EXPECT_EQ(eleven.value, 1.0);
    EXPECT_EQ(eleven.beyond, 10u);

    Tail ten = tailPercentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    EXPECT_EQ(ten.beyond, 0u);
    EXPECT_EQ(ten.value, 10.0);

    // Ties at the tail value do not count as beyond it.
    std::vector<double> ties(30, 1.0);
    EXPECT_EQ(tailPercentile(ties).beyond, 0u);
}

TEST(Stats, MedianIsExact)
{
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Stats, SessionSummaryIsMedianOverSessions)
{
    // Three sessions of 20 calls; one is uniformly twice as slow.
    std::vector<Session> sessions(3);
    for (int s = 0; s < 3; ++s) {
        const double scale = s == 1 ? 2.0 : 1.0;
        for (int i = 1; i <= 20; ++i)
            sessions[s].samples.push_back(scale * i);
        sessions[s].elapsed = scale * 210.0;
        sessions[s].units = 20.0 * (s + 1);
    }
    SessionSummary sum = summarize(sessions);
    EXPECT_DOUBLE_EQ(sum.p50, 10.5);
    EXPECT_DOUBLE_EQ(sum.tail, 10.0); // 11th-slowest of 20
    EXPECT_EQ(sum.minBeyond, 10u);
    EXPECT_EQ(sum.samples, 60u);
    EXPECT_DOUBLE_EQ(sum.rate, 20.0 / 210.0); // sessions 0 and 1 tie
    ASSERT_EQ(sum.sessionP50.size(), 3u);
    EXPECT_DOUBLE_EQ(sum.sessionP50[1], 21.0);
}

TEST(MetricNames, Charset)
{
    for (const auto *defs : {&endToEndMetrics(), &perLayerMetrics()}) {
        for (const MetricDef &d : *defs) {
            EXPECT_TRUE(validMetricName(d.name)) << d.name;
            EXPECT_TRUE(validUnit(d.unit)) << d.unit;
        }
    }
    EXPECT_TRUE(validMetricName("ops.fc.ms"));
    EXPECT_TRUE(validMetricName("9-lives_x"));
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName("_leading"));
    EXPECT_FALSE(validMetricName(".leading"));
    EXPECT_FALSE(validMetricName("has space"));
    EXPECT_FALSE(validMetricName("slash/name"));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
    EXPECT_TRUE(validMetricName(std::string(64, 'a')));
    EXPECT_TRUE(validUnit("1/s"));
    EXPECT_TRUE(validUnit("%"));
    EXPECT_FALSE(validUnit("items per s"));
    EXPECT_FALSE(validUnit(std::string(17, 's')));
}

TEST(Report, ResultLineHasEveryMetricOfItsPlane)
{
    Report r;
    r.set("latency_ms_p50", 1.5);
    r.set("ops.fc.ms", 2.5);
    r.attempted = 3;
    const std::string e2e = r.resultJson(false);
    const std::string layer = r.resultJson(true);
    for (const MetricDef &d : endToEndMetrics()) {
        EXPECT_NE(e2e.find('"' + std::string(d.name) + '"'),
                  std::string::npos);
        EXPECT_EQ(layer.find('"' + std::string(d.name) + '"'),
                  std::string::npos);
    }
    EXPECT_NE(layer.find("\"ops.fc.ms\": {\"value\": 2.5"),
              std::string::npos);
    EXPECT_EQ(e2e.rfind("{\"correct\": true, \"attempted\": 3, "
                        "\"failed\": 0, ",
                        0),
              0u);
    EXPECT_THROW(r.set("no.such.metric", 1.0), std::logic_error);
    r.set("setup_s", std::nan(""));
    EXPECT_FALSE(r.correct());
}

TEST(SimDigest, ReproducibleAndSeedSensitive)
{
    for (const char *name : {"sim-shard-rmc1", "sim-serve-rmc2"}) {
        auto a = makeSimWorkload(name, 7);
        auto b = makeSimWorkload(name, 7);
        auto c = makeSimWorkload(name, 8);
        WindowStats wa = a->window();
        WindowStats wb = b->window();
        WindowStats wc = c->window();
        EXPECT_EQ(wa.digest, wb.digest) << name;
        EXPECT_NE(wa.digest, wc.digest) << name;
        // The next window of the same simulator differs from its first.
        EXPECT_NE(a->window().digest, wa.digest) << name;
    }
}

TEST(SimAccounting, AttemptedIsOkPlusFailed)
{
    for (const char *name : {"sim-shard-rmc1", "sim-serve-rmc2"}) {
        WindowStats w = makeSimWorkload(name, 3)->window();
        EXPECT_GT(w.attempted, 0u) << name;
        EXPECT_EQ(w.attempted, w.ok + w.failed) << name;
        EXPECT_EQ(w.failed, 0u) << name;
        EXPECT_GT(w.virtualSeconds, 0.0) << name;
        EXPECT_EQ(w.virtualLatency.size(), w.ok) << name;
    }
}

namespace {

struct SmallModel
{
    explicit SmallModel(recperf::ModelConfig cfg)
    {
        recperf::Rng rng(5);
        model = std::make_unique<recperf::RecModel>(cfg, rng);
        pool = makeInputPool(cfg, 8, 2, 11);
    }
    std::unique_ptr<recperf::RecModel> model;
    std::vector<recperf::ModelInput> pool;
};

} // namespace

TEST(FwdCheck, DecompositionIsBitwiseAndReferenceCatchesPerturbation)
{
    for (const recperf::ModelConfig &cfg :
         {recperf::rmc1Small().functionalScale(512),
          recperf::rmc3Dot().functionalScale(512)}) {
        SmallModel m(cfg);
        for (const recperf::ModelInput &in : m.pool) {
            recperf::Tensor out = m.model->forward(in);
            OpTimes t;
            recperf::Tensor dec = decomposedForward(*m.model, in, &t);
            EXPECT_TRUE(bitwiseEqual(dec, out)) << cfg.name;
            EXPECT_EQ(t.fcCalls, static_cast<int>(cfg.bottomMlp.size() +
                                                  cfg.topMlp.size()));
            EXPECT_EQ(t.slsCalls, cfg.emb.numTables);

            recperf::Tensor ref = referenceForward(*m.model, in);
            Closeness ok = withinTolerance(out, ref);
            EXPECT_TRUE(ok.ok) << cfg.name << " diff " << ok.maxAbsDiff;

            recperf::Tensor bad = out;
            bad.data()[bad.size() - 1] += 1e-3f;
            EXPECT_FALSE(withinTolerance(bad, ref).ok) << cfg.name;
            EXPECT_FALSE(bitwiseEqual(bad, out)) << cfg.name;
        }
    }
}

namespace {

/** Keep the compiler from eliding an allocation/free pair. */
void
escape(void *p)
{
    asm volatile("" : : "g"(p) : "memory");
}

} // namespace

TEST(AllocCount, CountsNewAndAlignedAlloc)
{
    setAllocCounting(true);
    AllocCounts a0 = allocCounts();
    auto *p = new int[100];
    escape(p);
    void *q = std::aligned_alloc(64, 4096);
    escape(q);
    AllocCounts a1 = allocCounts();
    setAllocCounting(false);
    delete[] p;
    std::free(q);
    EXPECT_EQ(a1.allocs - a0.allocs, 2u);
    EXPECT_EQ(a1.bytes - a0.bytes, 100 * sizeof(int) + 4096);

    void *r = std::aligned_alloc(64, 64);
    escape(r);
    std::free(r);
    EXPECT_EQ(allocCounts().allocs, a1.allocs);
}
