/**
 * @file
 * perfbench: RecPerf's benchmark program.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--golden <file>] [--spans <file>]
 *   perfbench --print-digest --workload <sim workload> --seed <n>
 *
 * Prints a provenance line, then as its last line the JSON result
 * {"correct", "attempted", "failed", "metrics"}. Exits 2 on bad
 * arguments and 1 when the workload throws, printing no result.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <unistd.h>

#include "machine/simd.hh"
#include "ops/kernel_cache.hh"
#include "report.hh"
#include "sim.hh"
#include "workload.hh"

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload <fwd-rmc3|fwd-rmc2|"
                 "sim-serve-rmc2|sim-shard-rmc1> --seed <n> --seconds <s> "
                 "--trace <0|1> [--golden <file>] [--spans <file>]\n"
                 "       perfbench --print-digest --workload <sim> "
                 "--seed <n>\n",
                 why);
    return 2;
}

bool
parseUnsigned(const char *s, unsigned long long *out)
{
    char *end = nullptr;
    *out = std::strtoull(s, &end, 10);
    return *s != '\0' && *s != '-' && end && *end == '\0';
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    RunConfig cfg;
    bool print_digest = false;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--print-digest") {
            print_digest = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const char *val = argv[++i];
        unsigned long long n = 0;
        if (arg == "--workload") {
            cfg.workload = val;
        } else if (arg == "--seed") {
            if (!parseUnsigned(val, &n))
                return usage("--seed takes a non-negative integer");
            cfg.seed = n;
            have_seed = true;
        } else if (arg == "--seconds") {
            char *end = nullptr;
            cfg.seconds = std::strtod(val, &end);
            if (!end || *end != '\0' || !(cfg.seconds > 0.0) ||
                cfg.seconds > 3600.0)
                return usage("--seconds takes a number in (0, 3600]");
            have_seconds = true;
        } else if (arg == "--trace") {
            if (!parseUnsigned(val, &n) || n > 1)
                return usage("--trace takes 0 or 1");
            cfg.trace = n == 1;
            have_trace = true;
        } else if (arg == "--golden") {
            cfg.goldenPath = val;
        } else if (arg == "--spans") {
            cfg.spansPath = val;
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
    }
    const bool fwd = isFwdWorkload(cfg.workload);
    const bool sim = isSimWorkload(cfg.workload);
    if (!fwd && !sim)
        return usage(("unknown workload '" + cfg.workload + "'").c_str());

    try {
        if (print_digest) {
            if (!sim || !have_seed)
                return usage("--print-digest needs a sim workload and "
                             "--seed");
            std::printf("%s %llu %s\n", cfg.workload.c_str(),
                        static_cast<unsigned long long>(cfg.seed),
                        replay(cfg.workload, cfg.seed).full.c_str());
            return 0;
        }
        if (!have_seed || !have_seconds || !have_trace)
            return usage("--seed, --seconds and --trace are required");

        Report report;
        report.noteString("workload", cfg.workload);
        report.note("seed", static_cast<double>(cfg.seed));
        report.note("seconds", cfg.seconds);
        report.note("trace", cfg.trace ? 1.0 : 0.0);
        report.note("nproc", hostCpus());
        report.noteString("isa_detected",
                          recperf::kernelIsaName(recperf::detectIsa()));
        report.noteString(
            "isa_selected",
            recperf::kernelIsaName(
                recperf::KernelCache::global().policy().resolved()));
        report.note("llc_bytes",
                    static_cast<double>(sysconf(_SC_LEVEL3_CACHE_SIZE)));
        if (fwd)
            runFwd(cfg, report);
        else
            runSim(cfg, report);
        std::printf("%s\n%s\n", report.provenanceJson().c_str(),
                    report.resultJson(cfg.trace).c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     cfg.workload.c_str(), e.what());
        return 1;
    }
}
