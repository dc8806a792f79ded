/**
 * @file
 * Golden test for the bench::JsonWriter envelope. bench_diff.py and CI
 * consume the committed BENCH_*.json files, so the envelope shape --
 * schema_version first, then bench / machine / config / results, with
 * fields rendered in insertion order -- is a compatibility contract.
 * Any change here must bump schema_version and update bench_diff.py.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "bench/bench_common.hh"

namespace recperf {
namespace {

TEST(BenchJson, EnvelopeMatchesGolden)
{
    // The envelope stamps the ISA the kernels run under: pin a tier
    // and expect it, not the "auto" default.
    KernelCache &cache = KernelCache::global();
    const IsaPolicy saved = cache.policy();
    cache.setPolicy(IsaPolicy{false, KernelIsa::Scalar});
    bench::JsonWriter writer("unit_test_bench");
    cache.setPolicy(saved);
    writer.config().add("iters", 100).add("model", "rmc1");
    writer.newResult()
        .add("name", std::string("row \"one\""))
        .add("threads", 2)
        .add("p99_ms", 1.25)
        .add("ok", true);
    writer.newResult().add("name", "row two").add("p99_ms", 0.5);

    // host_cores is the machine-dependent field; substitute it from
    // the live process.
    std::string golden = std::string("{\n") +
        "  \"schema_version\": 1,\n"
        "  \"bench\": \"unit_test_bench\",\n"
        "  \"machine\": {\n"
        "    \"host_cores\": @CORES@,\n"
        "    \"backend\": \"cpu\",\n"
        "    \"isa\": \"scalar\"\n"
        "  },\n"
        "  \"config\": {\n"
        "    \"iters\": 100,\n"
        "    \"model\": \"rmc1\"\n"
        "  },\n"
        "  \"results\": [\n"
        "    {\n"
        "      \"name\": \"row \\\"one\\\"\",\n"
        "      \"threads\": 2,\n"
        "      \"p99_ms\": 1.25,\n"
        "      \"ok\": true\n"
        "    },\n"
        "    {\n"
        "      \"name\": \"row two\",\n"
        "      \"p99_ms\": 0.5\n"
        "    }\n"
        "  ]\n"
        "}\n";
    std::string cores =
        std::to_string(std::thread::hardware_concurrency());
    golden.replace(golden.find("@CORES@"), 7, cores);

    EXPECT_EQ(writer.str(), golden);
}

TEST(BenchJson, SchemaVersionIsStable)
{
    // bench_diff.py hard-fails on schema_version mismatch; bumping it
    // invalidates every committed baseline, so make it deliberate.
    EXPECT_EQ(bench::JsonWriter::kSchemaVersion, 1);
}

TEST(BenchJson, NumbersUseShortestRoundTrip)
{
    bench::JsonObject obj;
    obj.add("tiny", 1e-9);
    obj.add("frac", 0.3333333333333333);
    obj.add("whole", 2.0);
    std::string out = obj.render(0);
    EXPECT_NE(out.find("\"tiny\": 1e-09"), std::string::npos) << out;
    EXPECT_NE(out.find("\"frac\": 0.3333333333"), std::string::npos)
        << out;
    EXPECT_NE(out.find("\"whole\": 2"), std::string::npos) << out;
}

TEST(BenchJson, ControlCharactersAreEscaped)
{
    bench::JsonObject obj;
    obj.add("s", std::string("a\nb\x01\"c\\"));
    std::string out = obj.render(0);
    EXPECT_NE(out.find("\"a\\nb\\u0001\\\"c\\\\\""), std::string::npos)
        << out;
}

} // namespace
} // namespace recperf
