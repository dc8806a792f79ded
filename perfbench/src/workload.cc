#include "workload.hh"

#include <algorithm>
#include <sys/resource.h>
#include <thread>

namespace perfbench {

double
peakRssMib()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

int
hostCpus()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

int
workloadThreads()
{
    return std::max(1, hostCpus() / 2);
}

} // namespace perfbench
