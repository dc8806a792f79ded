/**
 * @file
 * Backend #0: host SIMD execution with the calibrated cache/roofline
 * cost model.
 *
 * The timing hooks are the ModelTimer's original operator models,
 * moved verbatim: an FC residency/refetch model, the simulated-cache
 * SLS gather, and the analytic concat/batch-MM/activation terms. The
 * move is the bitwise-identity anchor of the backend refactor — a
 * CpuBackend run consumes the same RNG draws and the same hierarchy
 * accesses in the same order as the pre-backend code, so eval
 * checksums, traces, and metrics are byte-equal (tests/backend_test).
 */

#ifndef RECPERF_BACKEND_CPU_BACKEND_HH
#define RECPERF_BACKEND_CPU_BACKEND_HH

#include "backend/compute_backend.hh"

namespace recperf {

class CpuBackend : public ComputeBackend
{
  public:
    explicit CpuBackend(const BackendConfig &config)
        : ComputeBackend(config)
    {
    }

    BackendKind kind() const override { return BackendKind::Cpu; }

    void timeFc(TimingContext &ctx, int64_t in, int64_t out,
                OpTiming &t) override;
    void timeSls(TimingContext &ctx, size_t table_index,
                 OpTiming &t) override;
    void timeConcat(TimingContext &ctx, OpTiming &t) override;
    void timeBatchMM(TimingContext &ctx, OpTiming &t) override;
    void timeActivation(TimingContext &ctx, int64_t elements,
                        OpTiming &t) override;
};

} // namespace recperf

#endif // RECPERF_BACKEND_CPU_BACKEND_HH
