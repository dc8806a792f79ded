/**
 * @file
 * Contract tests for the recperf command line, driven through the
 * built binary: out-of-range numeric flags exit 2 with an "error:"
 * message on every command, and --seed reaches the simulated traces.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <string>

namespace recperf {
namespace {

struct CliRun
{
    int status = -1; ///< exit code, or -1 if the process did not exit
    std::string out; ///< captured stream (see runCli)
};

/**
 * Run `recperf <args>` through the shell. Captures stdout, or stderr
 * (with stdout discarded) when @p capture_stderr is set.
 */
CliRun
runCli(const std::string &args, bool capture_stderr = false)
{
    std::string cmd = std::string("'") + RECPERF_CLI + "' " + args +
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

TEST(CliContract, OutOfRangeNumbersExitTwo)
{
    for (const char *args :
         {"time --batch -3", "time --iters 0", "colocate --batch 0",
          "eval --batch 0", "eval --rows-cap 0", "trace --rows 0",
          "trace --zipf -1"}) {
        CliRun run = runCli(args, /*capture_stderr=*/true);
        EXPECT_EQ(run.status, 2) << args;
        EXPECT_EQ(run.out.rfind("error:", 0), 0u) << args << ": "
                                                  << run.out;
        EXPECT_EQ(run.out.find("panic"), std::string::npos)
            << args << ": " << run.out;
    }
}

TEST(CliContract, SeedChangesServeOutput)
{
    CliRun one = runCli("serve --items 2000 --seed 1");
    CliRun other = runCli("serve --items 2000 --seed 99");
    ASSERT_EQ(one.status, 0);
    ASSERT_EQ(other.status, 0);
    EXPECT_NE(one.out, other.out);
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
