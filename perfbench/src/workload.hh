/**
 * @file
 * What one benchmark run is asked to do, and the helpers every workload
 * shares.
 */

#ifndef PERFBENCH_WORKLOAD_HH
#define PERFBENCH_WORKLOAD_HH

#include <cstdint>
#include <string>

#include "report.hh"

namespace perfbench {

struct RunConfig
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Stored sim digests ("<workload> <seed> <hex>" per line). */
    std::string goldenPath;
    /** Where a traced run writes its spans; empty = nowhere. */
    std::string spansPath;
};

/** Set-ups per run; setup_s is their median. */
inline constexpr int kSetupRepeats = 3;

/** Timed sessions per run, each --seconds / kSessions long. */
inline constexpr int kSessions = 7;

/** Fewest timed calls a session makes, however short it is. */
inline constexpr size_t kMinCalls = 12;

/** Process peak resident set, MiB. */
double peakRssMib();

/** Threads the fwd workloads run on: half the online CPUs, at least 1. */
int workloadThreads();

/** Online CPUs. */
int hostCpus();

void runFwd(const RunConfig &cfg, Report &report);
void runSim(const RunConfig &cfg, Report &report);

bool isFwdWorkload(const std::string &name);
bool isSimWorkload(const std::string &name);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HH
