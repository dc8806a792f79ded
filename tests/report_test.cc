/**
 * @file
 * Tests for the run-report renderer (obs::renderReport) and its JSON
 * reader, including the fig07 acceptance criterion: the operator cycle
 * fractions reconstructed from exported counters alone must reproduce
 * the paper's breakdown (RMC2 dominated by SLS, RMC3 by FC), and the
 * per-level cache counters feeding the MPKI table must equal the
 * simcache's own statistics over the measurement window.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "machine/machine_spec.hh"
#include "model/zoo.hh"
#include "obs/hw_counters.hh"
#include "obs/metrics.hh"
#include "obs/report.hh"
#include "obs/request_log.hh"
#include "serving/server.hh"
#include "timing/model_timer.hh"

namespace recperf {
namespace {

// --- JSON reader --------------------------------------------------------

TEST(ReportJson, ParsesOurWritersSubset)
{
    const std::string doc = R"({
      "s": "a\"b\\cA",
      "n": -1.5e3,
      "t": true, "f": false, "z": null,
      "arr": [1, 2, {"nested": "yes"}],
      "obj": {"first": 1, "second": 2}
    })";
    obs::JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson(doc, v, err)) << err;
    ASSERT_EQ(v.kind, obs::JsonValue::Kind::Object);
    EXPECT_EQ(v.find("s")->str, "a\"b\\cA");
    EXPECT_DOUBLE_EQ(v.find("n")->asNumber(), -1500.0);
    EXPECT_TRUE(v.find("t")->boolean);
    EXPECT_EQ(v.find("z")->kind, obs::JsonValue::Kind::Null);
    ASSERT_EQ(v.find("arr")->items.size(), 3u);
    EXPECT_EQ(v.find("arr")->items[2].find("nested")->str, "yes");
    // Object keys keep document order.
    EXPECT_EQ(v.find("obj")->fields[0].first, "first");
    EXPECT_EQ(v.find("obj")->fields[1].first, "second");
}

TEST(ReportJson, RejectsMalformedInputWithOffset)
{
    obs::JsonValue v;
    std::string err;
    EXPECT_FALSE(parseJson("{\"a\": }", v, err));
    EXPECT_NE(err.find("byte"), std::string::npos) << err;
    EXPECT_FALSE(parseJson("", v, err));
    EXPECT_FALSE(parseJson("{\"a\": 1} trailing", v, err));
    // Adversarial nesting is a parse error, not a stack overflow.
    std::string deep =
        std::string(200000, '[') + std::string(200000, ']');
    EXPECT_FALSE(parseJson(deep, v, err));
    EXPECT_NE(err.find("nesting"), std::string::npos) << err;
}

TEST(ReportJson, NumbersMustBeWholeAndFinite)
{
    obs::JsonValue v;
    std::string err;
    // An overflowing exponent is malformed input, not infinity; so are
    // a token strtod reads only partly and non-JSON literals.
    for (const char *bad : {"[1e999999]", "[-1e999999]", "[1.2.3]",
                            "[1e]", "[-]", "[NaN]", "[Infinity]",
                            "[-inf]"}) {
        EXPECT_FALSE(parseJson(bad, v, err)) << bad;
        EXPECT_NE(err.find("byte"), std::string::npos) << bad << ": " << err;
    }
    ASSERT_TRUE(parseJson("[1e308, -0.0, 2.5e-3]", v, err)) << err;
    EXPECT_DOUBLE_EQ(v.items[0].asNumber(), 1e308);
    EXPECT_TRUE(std::signbit(v.items[1].asNumber()));
    EXPECT_DOUBLE_EQ(v.items[2].asNumber(), 2.5e-3);
}

TEST(Report, MalformedArtifactReportsErrorNotCrash)
{
    obs::ReportInputs inputs;
    inputs.metricsJson = "{not json";
    std::string err;
    EXPECT_EQ(renderReport(inputs, err), "");
    EXPECT_FALSE(err.empty());
}

TEST(Report, EmptyInputsRenderHeaderOnly)
{
    obs::ReportInputs inputs;
    std::string err;
    std::string report = renderReport(inputs, err);
    EXPECT_TRUE(err.empty());
    EXPECT_NE(report.find("recperf run report"), std::string::npos);
}

// --- fig07 acceptance ---------------------------------------------------

/**
 * Time @p config at batch 1 on Broadwell with telemetry on and return
 * the exported metrics snapshot (fig07's measurement shape).
 */
obs::MetricsSnapshot
timedSnapshot(const ModelConfig &config, const CacheHierarchy **hier_out,
              HierarchyCounters *ground_delta)
{
    obs::HwTelemetry &telem = obs::HwTelemetry::global();
    TimerOptions topts;
    topts.batch = 1;
    ModelTimer timer(broadwell(), config, topts);

    // Warm up outside the measurement window, as steadyState does.
    for (int i = 0; i < 50; ++i)
        (void)timer.run();
    telem.reset();
    telem.setEnabled(true);
    HierarchyCounters before = timer.hierarchy()->counters();
    for (int i = 0; i < 50; ++i)
        (void)timer.run();
    HierarchyCounters after = timer.hierarchy()->counters();
    telem.setEnabled(false);

    if (hier_out)
        *hier_out = timer.hierarchy();
    if (ground_delta) {
        ground_delta->l1.accesses = after.l1.accesses - before.l1.accesses;
        ground_delta->l1.misses = after.l1.misses - before.l1.misses;
        ground_delta->l2.misses = after.l2.misses - before.l2.misses;
        ground_delta->l3.misses = after.l3.misses - before.l3.misses;
        ground_delta->l3.backInvalidations =
            after.l3.backInvalidations - before.l3.backInvalidations;
    }

    static obs::MetricsRegistry reg; // fresh names per test run
    reg.reset();
    telem.exportTo(reg);
    return reg.snapshot();
}

TEST(Report, Fig07Rmc2IsSlsDominatedFromCountersAlone)
{
    HierarchyCounters ground{};
    obs::MetricsSnapshot snap = timedSnapshot(rmc2Small(), nullptr,
                                              &ground);
    // Paper Fig 7: RMC2 at batch 1 spends ~82.7% of its cycles in
    // SLS/embedding lookups. Reconstructed purely from the exported
    // hw.op.* counters.
    double sls = snap.gauge("hw.op.SLS.fraction");
    EXPECT_NEAR(sls, 0.827, 0.06) << "SLS fraction " << sls;
    EXPECT_GT(sls, snap.gauge("hw.op.FC.fraction"));

    // Per-level counters must equal the simcache ground truth deltas.
    EXPECT_EQ(snap.counter("simcache.l1.accesses"), ground.l1.accesses);
    EXPECT_EQ(snap.counter("simcache.l1.misses"), ground.l1.misses);
    EXPECT_EQ(snap.counter("simcache.l2.misses"), ground.l2.misses);
    EXPECT_EQ(snap.counter("simcache.l3.misses"), ground.l3.misses);
    EXPECT_EQ(snap.counter("simcache.l3.back_invalidations"),
              ground.l3.backInvalidations);
}

TEST(Report, Fig07Rmc3IsFcDominatedFromCountersAlone)
{
    obs::MetricsSnapshot snap = timedSnapshot(rmc3Small(), nullptr,
                                              nullptr);
    // Paper Fig 7: RMC3's wide FC stacks take ~97.5% of cycles.
    double fc = snap.gauge("hw.op.FC.fraction");
    EXPECT_NEAR(fc, 0.975, 0.03) << "FC fraction " << fc;
    EXPECT_GT(fc, 10.0 * snap.gauge("hw.op.SLS.fraction"));
}

TEST(Report, RendersOperatorCacheAndRooflineSectionsFromMetrics)
{
    obs::MetricsSnapshot snap = timedSnapshot(rmc2Small(), nullptr,
                                              nullptr);
    obs::ReportInputs inputs;
    inputs.metricsJson = snap.toJson();
    std::string err;
    std::string report = renderReport(inputs, err);
    ASSERT_FALSE(report.empty()) << err;
    EXPECT_NE(report.find("Operator breakdown"), std::string::npos);
    EXPECT_NE(report.find("SLS"), std::string::npos);
    EXPECT_NE(report.find("Cache hierarchy"), std::string::npos);
    EXPECT_NE(report.find("MPKI"), std::string::npos);
    EXPECT_NE(report.find("Roofline"), std::string::npos);
    EXPECT_NE(report.find("GFLOP/s"), std::string::npos);
}

// --- tail attribution ---------------------------------------------------

TEST(Report, TailAttributionSectionPinsBlameOrderingUnderOverload)
{
    // Seeded overload serve: the queue is the tail's cause, so the
    // blame table must exist and lead with `queue`. The ordering is
    // pinned — a change to the blame math or the section's sort shows
    // up here before it confuses a reader.
    obs::RequestLogger rlog;
    ServerOptions sopts;
    sopts.numWorkers = 2;
    sopts.maxBatch = 16;
    sopts.slaSeconds = 1.5e-3;
    sopts.seed = 7;
    TimerOptions topts;
    topts.batch = sopts.maxBatch;
    Server server(broadwell(), rmc1Small(), topts, sopts);
    server.runOpenLoop(300000.0, 2500, &rlog);

    obs::MetricsRegistry reg;
    rlog.exportTo(reg);

    obs::ReportInputs inputs;
    inputs.metricsJson = reg.snapshot().toJson();
    std::string err;
    std::string report = renderReport(inputs, err);
    ASSERT_FALSE(report.empty()) << err;
    size_t section = report.find("Tail attribution");
    ASSERT_NE(section, std::string::npos) << report;
    size_t queue = report.find("queue", section);
    size_t service = report.find("service", section);
    ASSERT_NE(queue, std::string::npos) << report;
    ASSERT_NE(service, std::string::npos) << report;
    EXPECT_LT(queue, service)
        << "queueing must out-blame service under overload:\n"
        << report;
}

TEST(Report, NoTailSectionWithoutRequestLogGauges)
{
    obs::MetricsSnapshot snap = timedSnapshot(rmc2Small(), nullptr,
                                              nullptr);
    obs::ReportInputs inputs;
    inputs.metricsJson = snap.toJson();
    std::string err;
    std::string report = renderReport(inputs, err);
    ASSERT_FALSE(report.empty()) << err;
    EXPECT_EQ(report.find("Tail attribution"), std::string::npos);
}

} // namespace
} // namespace recperf
