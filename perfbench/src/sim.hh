/**
 * @file
 * Virtual-time-plane workloads: repeated simulation windows on one warm
 * simulator, timed on the host clock.
 *
 * sim-serve-rmc2 runs Server::runOpenLoop windows (RMC2, dynamic
 * batching, Poisson arrivals below capacity); sim-shard-rmc1 runs
 * ShardedInference::run windows (RMC1 over 4 nodes, 2 replicas behind a
 * p2c router, stragglers, hedging). Every simulated statistic of the
 * first kDigestWindows windows is folded into a digest, which must be
 * reproducible and must change with the seed.
 */

#ifndef PERFBENCH_SIM_HH
#define PERFBENCH_SIM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "model/config.hh"
#include "stats.hh"

namespace perfbench {

/** Windows (counting set-up's warm-up window) the digest covers. */
inline constexpr int kDigestWindows = 3;

/** Windows the simulated per-layer outputs are computed over. */
inline constexpr int kFixedWindows = 10;

/** Host time and simulated outputs of one window. */
struct WindowStats
{
    double wallSeconds = 0.0;
    double virtualSeconds = 0.0;
    uint64_t attempted = 0; ///< items (serve) or inferences (shard)
    uint64_t ok = 0;        ///< served / completed
    uint64_t failed = 0;    ///< shed, cancelled or failed
    uint64_t batches = 0;   ///< serve: batches formed
    uint64_t runs = 0;      ///< ModelTimer::run calls
    /** Runs covered by the simulator's telemetry (measured phase). */
    uint64_t telemetryRuns = 0;
    uint64_t shardRequests = 0;
    uint64_t hedges = 0;
    uint64_t hedgeWins = 0;
    uint64_t retries = 0;
    /** Per item (serve) or per inference (shard), virtual seconds. */
    std::vector<double> virtualLatency;
    /** Digest of every simulated statistic of this window. */
    uint64_t digest = 0;
};

class SimWorkload
{
  public:
    virtual ~SimWorkload() = default;
    virtual WindowStats window() = 0;
    /** The model whose ModelTimer runs dominate the host time. */
    virtual const recperf::ModelConfig &model() const = 0;
    /** Batch of those runs. */
    virtual int64_t batch() const = 0;
};

/** The named sim workload at @p seed; throws on an unknown name. */
std::unique_ptr<SimWorkload> makeSimWorkload(const std::string &name,
                                             uint64_t seed);

/** The first kDigestWindows windows of a fresh workload. */
struct Replay
{
    std::vector<uint64_t> windows; ///< each window's digest
    /** Over the windows and the simulated cache counters (telemetry
     *  on): what golden_digests.txt stores. */
    std::string full;
};
Replay replay(const std::string &name, uint64_t seed);

/**
 * Look up the stored digest of (@p name, @p seed) in @p path; empty when
 * the file or the entry is missing.
 */
std::string lookupStoredDigest(const std::string &path,
                               const std::string &name, uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_SIM_HH
