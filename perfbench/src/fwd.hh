/**
 * @file
 * Functional-plane workloads: RecModel::forward in a closed loop.
 *
 * fwd-rmc3 is FC/GEMM-bound, fwd-rmc2 is bound by the SLS fan-out,
 * concatenation and allocation. Both cycle through a pool of distinct
 * input batches generated from the run's seed before timing starts.
 */

#ifndef PERFBENCH_FWD_HH
#define PERFBENCH_FWD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "model/rec_model.hh"
#include "spans.hh"

namespace perfbench {

struct FwdWorkload
{
    std::string name;
    recperf::ModelConfig config;
    int64_t batch = 64;
    /** Distinct input batches the timed loop cycles through. */
    int poolSize = 16;
};

/** The named fwd workload; throws std::invalid_argument otherwise. */
FwdWorkload fwdWorkload(const std::string &name);

/**
 * @p count input batches. Sparse IDs come from one trace-layer
 * generator per table (Zipf + repeat, TimerOptions' defaults), so
 * consecutive batches continue one ID stream.
 */
std::vector<recperf::ModelInput> makeInputPool(
    const recperf::ModelConfig &config, int64_t batch, int count,
    uint64_t seed);

/** Wall time of each op class within one forward, and its work. */
struct OpTimes
{
    double fc = 0.0;
    double sls = 0.0;
    double interaction = 0.0;
    double elementwise = 0.0;
    int fcCalls = 0;
    int slsCalls = 0;
    double fcFlops = 0.0;
    double slsBytes = 0.0; ///< embedding bytes gathered

    double total() const { return fc + sls + interaction + elementwise; }
};

/**
 * RecModel::forward rebuilt from the public op calls, in the same order
 * and with the same pool fan-out, timing each op into @p times and
 * (when @p spans is non-null) the span log. Its output must equal
 * RecModel::forward bit for bit.
 */
recperf::Tensor decomposedForward(const recperf::RecModel &model,
                                  const recperf::ModelInput &input,
                                  OpTimes *times, SpanLog *spans = nullptr);

/** The same forward composed from ops/reference and naive loops. */
recperf::Tensor referenceForward(const recperf::RecModel &model,
                                 const recperf::ModelInput &input);

bool bitwiseEqual(const recperf::Tensor &a, const recperf::Tensor &b);

/** |got - want| <= kRefAtol + kRefRtol * |want| element-wise. */
inline constexpr double kRefAtol = 1e-5;
inline constexpr double kRefRtol = 1e-4;

struct Closeness
{
    bool ok = false;
    double maxAbsDiff = 0.0;
};
Closeness withinTolerance(const recperf::Tensor &got,
                          const recperf::Tensor &want);

} // namespace perfbench

#endif // PERFBENCH_FWD_HH
