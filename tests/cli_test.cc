/**
 * @file
 * Contract tests for the recperf command line, driven through the
 * built binary: bad input (a flag the command does not read, a value
 * of the wrong kind or out of range, an unknown name, a child flag
 * without its parent) exits 2 with one "error:" line on every
 * command, valid runs never trip the flag-scope assertion, --seed
 * reaches the simulated traces, and the default `--isa auto` prints the
 * same eval checksum as pinning the best tier the host has.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "machine/simd.hh"
#include "ops/kernel_cache.hh"

namespace recperf {
namespace {

struct CliRun
{
    int status = -1; ///< exit code, or -1 if the process did not exit
    std::string out; ///< captured stream (see runCli)
};

/**
 * Run `recperf <args>` through the shell, killed after 120 s so an
 * input that never terminates fails the test instead of hanging it.
 * Captures stdout, or stderr (with stdout discarded) when
 * @p capture_stderr is set.
 */
CliRun
runCli(const std::string &args, bool capture_stderr = false)
{
    std::string cmd = std::string("timeout 120 '") + RECPERF_CLI + "' " +
        args +
        (capture_stderr ? " 2>&1 >/dev/null" : " 2>/dev/null");
    CliRun run;
    std::FILE *pipe = popen(cmd.c_str(), "r");
    if (!pipe)
        return run;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0)
        run.out.append(buf, n);
    int status = pclose(pipe);
    if (status != -1 && WIFEXITED(status))
        run.status = WEXITSTATUS(status);
    return run;
}

/** Expect exit 2 and exactly one stderr line, "error: ...". */
void
expectUsageError(const std::string &args)
{
    CliRun run = runCli(args, /*capture_stderr=*/true);
    EXPECT_EQ(run.status, 2) << args << ": " << run.out;
    EXPECT_EQ(run.out.rfind("error:", 0), 0u) << args << ": " << run.out;
    EXPECT_EQ(run.out.find('\n'), run.out.size() - 1)
        << args << ": " << run.out;
    EXPECT_EQ(run.out.find("panic"), std::string::npos)
        << args << ": " << run.out;
    EXPECT_EQ(run.out.find("fatal"), std::string::npos)
        << args << ": " << run.out;
}

/** Scratch path for artifacts a run writes. */
std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "recperf_cli_test_" + name;
}

TEST(CliContract, OutOfRangeNumbersExitTwo)
{
    for (const char *args :
         {"time --batch -3", "time --iters 0", "colocate --batch 0",
          "eval --batch 0", "eval --rows-cap 0", "trace --rows 0",
          "trace --zipf -1", "trace --repeat 1.5", "trace --repeat -0.2",
          "colocate --max-tenants 0", "serve --rate inf --items 10",
          "time --batch 99999999999999999999", "time --batch abc",
          "trace --items 1.5", "serve --rate nan --items 10",
          "time --batch ''", "shard --replicas 0", "explain --top 0",
          "eval --integrity-sample 1.5", "eval --corrupt-events -1 "
          "--integrity-sample 1", "serve --workers 4294967297"}) {
        expectUsageError(args);
    }
}

TEST(CliContract, UnknownNamesExitTwo)
{
    for (const char *args :
         {"time --machine bogus", "time --model bogus",
          "shard --router bogus", "time --backend nmp --nmp-placement x",
          "eval --isa bogus", "eval --backend bogus", "bogus",
          "time --no-such-flag", "time stray-positional"}) {
        expectUsageError(args);
    }
}

/** Lines of `recperf <args>` stdout that document one flag. */
std::vector<std::string>
helpRows(const std::string &args)
{
    CliRun run = runCli(args);
    EXPECT_EQ(run.status, 0) << args;
    std::vector<std::string> rows;
    std::istringstream in(run.out);
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("  --", 0) == 0)
            rows.push_back(line.substr(4));
    }
    return rows;
}

/**
 * Every (command, flag) pair the command's own --help leaves out must
 * be rejected, even at the flag's default value.
 */
TEST(CliContract, FlagsOutsideACommandsScopeExitTwo)
{
    std::map<std::string, std::string> given; // flag -> args to pass
    for (const std::string &row : helpRows("help")) {
        std::string name = row.substr(0, row.find(' '));
        size_t def = row.find("(default: ");
        if (def == std::string::npos) {
            given[name] = "--" + name;
            continue;
        }
        def += 10;
        given[name] = "--" + name + " '" +
            row.substr(def, row.find(')', def) - def) + "'";
    }
    EXPECT_EQ(given.size(), 94u);
    for (const char *cmd : {"time", "colocate", "serve", "shard", "trace",
                            "eval", "report", "explain", "zoo"}) {
        std::set<std::string> scope;
        for (const std::string &row :
             helpRows(std::string(cmd) + " --help"))
            scope.insert(row.substr(0, row.find(' ')));
        EXPECT_TRUE(scope.count("help")) << cmd;
        for (const auto &[name, args] : given) {
            if (!scope.count(name))
                expectUsageError(std::string(cmd) + " " + args);
        }
    }
}

TEST(CliContract, FlagsACommandIgnoresExitTwo)
{
    for (const char *args :
         {"time --straggler-prob 0.5", "eval --brownout", "trace --hedge",
          "trace --model rmc2", "serve --nodes 3", "serve --mtbf-ms 5",
          "shard --admission"}) {
        expectUsageError(args);
    }
    std::string trace = tempPath("colocate_trace.json");
    std::remove(trace.c_str());
    expectUsageError("colocate --trace-out " + trace);
    EXPECT_FALSE(std::ifstream(trace).good()) << "wrote " << trace;
}

TEST(CliContract, ReplicaFlagsWithOneReplicaExitTwo)
{
    // Router, breaker, warm-up and chaos knobs need --replicas >= 2.
    for (const char *args :
         {"shard --iters 10 --router p2c",
          "shard --iters 10 --breaker-errors 5",
          "shard --iters 10 --warmup-ms 3", "shard --iters 10 --chaos-ms 3",
          "shard --iters 10 --chaos-events 2"}) {
        expectUsageError(args);
    }
}

TEST(CliContract, HedgeWithOneReplicaExitsTwo)
{
    // A hedge goes to the router's second copy; one copy has none.
    for (const char *args :
         {"shard --iters 10 --hedge",
          "shard --iters 10 --replicas 1 --hedge --hedge-ms 0.1"}) {
        expectUsageError(args);
        EXPECT_NE(runCli(args, /*capture_stderr=*/true)
                      .out.find("--hedge has no effect with --replicas=1"),
                  std::string::npos)
            << args;
    }
}

TEST(CliContract, SdcInputsThatNeverFinishExitTwo)
{
    // Corruption and scrub rates outside their finite domains, and a
    // canary interval no longer than one canary's calibrated cost,
    // would schedule work faster than the virtual clock advances.
    for (const char *args :
         {"shard --iters 10 --corrupt-rate 1e300",
          "shard --iters 10 --scrub-interval-ms 1e-300",
          "shard --iters 100 --integrity-canary-ms 0.01"}) {
        expectUsageError(args);
    }
}

TEST(CliContract, ChildFlagWithoutParentExitsTwo)
{
    for (const char *args :
         {"serve --brownout-enter 3", "shard --corrupt-zipf 1",
          "eval --corrupt-events 3", "time --nmp-ranks 4",
          "serve --admit-wait 0.3", "shard --hedge-ms 1",
          "shard --straggler-alpha 0.5", "serve --spike-factor 0.5",
          "serve --low-priority 0.5", "time --timeseries-interval-ms 5"}) {
        expectUsageError(args);
    }
}

/**
 * Every command runs at tiny sizes with in-scope flags only; each read
 * goes through the scope assertion, so a table row narrower than what
 * a handler reads panics here.
 */
TEST(CliContract, CommandsRunWithInScopeFlags)
{
    std::string metrics = tempPath("metrics.json");
    std::string log = tempPath("requests.jsonl");
    std::string faults = tempPath("faults.jsonl");
    for (const std::string &args : std::vector<std::string>{
             "time --iters 2 --counters --metrics-out " + metrics,
             "report --metrics " + metrics,
             "time --model rmc2 --iters 2 --backend nmp --nmp-ranks 4 "
             "--nmp-placement all",
             "colocate --max-tenants 2 --batch 4 --seed 3",
             "serve --items 400 --brownout --brownout-enter 3 "
             "--deadline-ms 5 --admission --admit-wait 0.5 "
             "--degrade-batch 4 --backlog-factor 2 --low-priority 0.2 "
             "--cluster-replicas 2 --healthy-replicas 1 --straggler-prob "
             "0.05 --straggler-alpha 2 --spike-rate 10 --spike-ms 1 "
             "--request-log-k 2 --request-log-out " + log,
             "explain --top 2 --request-log " + log,
             "shard --iters 20 --replicas 2 --router p2c --hedge "
             "--hedge-ms 0.1 --timeout-ms 2 --mtbf-ms 10 --mttr-ms 1 "
             "--chaos-events 2 --chaos-ms 1 --corrupt-rate 100 "
             "--corrupt-zipf 1 --scrub-interval-ms 5 --integrity-sample "
             "0.25 --integrity-guards --integrity-canary-ms 10 "
             "--fault-log-out " + faults,
             "trace --items 300 --rows 1000 --repeat 0",
             "eval --iters 1 --rows-cap 64 --threads 2 --integrity-sample 1 "
             "--corrupt-events 3 --fault-seed 7 --dump-kernel-cache",
             "zoo"}) {
        CliRun run = runCli(args, /*capture_stderr=*/true);
        EXPECT_EQ(run.status, 0) << args << ": " << run.out;
        EXPECT_EQ(run.out.find("panic"), std::string::npos)
            << args << ": " << run.out;
    }
}

TEST(CliContract, ShardLogUnderFastRecoveryIsExplainable)
{
    // Replicas that revive every few ms serve warm-up-inflated attempts
    // with no fault slowdown; their straggler share must not round
    // below zero, or `explain` rejects the whole log.
    std::string log = tempPath("recovering_shards.jsonl");
    ASSERT_EQ(runCli("shard --model rmc1 --nodes 4 --iters 300 "
                     "--mtbf-ms 2 --mttr-ms 1 --retries 1 "
                     "--request-log-out " + log)
                  .status,
              0);
    CliRun run = runCli("explain --request-log " + log,
                        /*capture_stderr=*/true);
    EXPECT_EQ(run.status, 0) << run.out;
}

TEST(CliContract, EmptyArtifactIsAnError)
{
    std::string empty = tempPath("empty.json");
    std::FILE *f = std::fopen(empty.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
    expectUsageError("report --metrics " + empty);
    expectUsageError("explain --request-log " + empty);
}

TEST(CliContract, MalformedArtifactExitsTwo)
{
    // A malformed artifact is bad input: one error line, exit 2.
    const std::pair<const char *, const char *> cases[] = {
        {"huge.json", "[1e999999]"},
        {"truncated.json", "{\"a\":"},
        {"token.json", "{\"a\": 1.2.3}"}};
    for (const auto &[name, text] : cases) {
        const std::string path = tempPath(name);
        std::ofstream(path) << text;
        expectUsageError("report --metrics " + path);
    }
    expectUsageError("explain --request-log " + tempPath("truncated.json"));
}

TEST(CliContract, TruncatedMetricsExportExitsTwoAtEveryOffset)
{
    // Property: every proper prefix of a real metrics export (cut
    // anywhere before its closing brace) is rejected with exit 2 and a
    // single "error:" line — never accepted, never an abort. One shell
    // loop runs all the cuts.
    const std::string full = tempPath("full_metrics.json");
    ASSERT_EQ(runCli("time --iters 2 --counters --metrics-out " + full)
                  .status,
              0);
    std::ifstream in(full, std::ios::binary);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const size_t close = text.rfind('}');
    ASSERT_NE(close, std::string::npos);

    // Each cut prints one line, "<offset> <exit status> <stderr>"; a
    // multi-line stderr breaks the line count and format below.
    const std::string script = tempPath("cut_metrics.sh");
    std::ofstream(script) << R"sh(cli=$1 full=$2 cut=$3
for i in $(seq 0 $4); do
  head -c "$i" "$full" > "$cut"
  e=$("$cli" report --metrics "$cut" 2>&1 >/dev/null)
  echo "$i $? $e"
done
)sh";
    const std::string cmd = "timeout 300 sh '" + script + "' '" +
        RECPERF_CLI + "' '" + full + "' '" + tempPath("cut_metrics.json") +
        "' " + std::to_string(close);
    std::FILE *pipe = popen(cmd.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    std::string out;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0)
        out.append(buf, n);
    pclose(pipe);

    std::istringstream lines(out);
    std::string line;
    size_t checked = 0;
    while (std::getline(lines, line)) {
        std::istringstream fields(line);
        size_t offset = 0;
        int status = -1;
        std::string head;
        fields >> offset >> status >> head;
        EXPECT_EQ(offset, checked) << line;
        EXPECT_EQ(status, 2) << line;
        EXPECT_EQ(head, "error:") << line;
        ++checked;
    }
    EXPECT_EQ(checked, close + 1);
}

TEST(CliContract, SeedChangesServeOutput)
{
    CliRun one = runCli("serve --items 2000 --seed 1");
    CliRun other = runCli("serve --items 2000 --seed 99");
    ASSERT_EQ(one.status, 0);
    ASSERT_EQ(other.status, 0);
    EXPECT_NE(one.out, other.out);
}

/** The hex digits of the eval "checksum:" line in @p out, or "". */
std::string
checksumDigits(const std::string &out)
{
    const size_t at = out.find("checksum:");
    if (at == std::string::npos)
        return "";
    std::istringstream line(out.substr(at + 9));
    std::string digits;
    line >> digits;
    return digits;
}

TEST(CliContract, AutoIsaMatchesThePinnedBestTier)
{
    // Auto resolves to one tier and installs that tier's fixed plans,
    // so every default run prints the pinned best tier's bits.
    const std::string best = kernelIsaName(resolveTier(IsaPolicy{}));
    CliRun pinned = runCli("eval --model rmc1 --batch 16 --isa " + best);
    ASSERT_EQ(pinned.status, 0);
    const std::string want = checksumDigits(pinned.out);
    ASSERT_EQ(want.size(), 16u) << pinned.out;
    for (int run = 0; run < 5; ++run) {
        CliRun plain = runCli("eval --model rmc1 --batch 16");
        ASSERT_EQ(plain.status, 0);
        EXPECT_EQ(checksumDigits(plain.out), want) << "run " << run;
    }
}

TEST(CliContract, DefaultSeedMatchesNoFlag)
{
    CliRun flagged = runCli("serve --items 2000 --seed 42");
    CliRun plain = runCli("serve --items 2000");
    ASSERT_EQ(flagged.status, 0);
    ASSERT_EQ(plain.status, 0);
    EXPECT_EQ(flagged.out, plain.out);
}

} // namespace
} // namespace recperf
