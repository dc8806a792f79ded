/**
 * @file
 * Backend #1: near-memory (PIM) SparseLengthsSum engine.
 *
 * Models a RecNMP/UPMEM-style deployment: rank-level lookup engines
 * inside the DIMMs gather and pool embedding rows at aggregate in-rank
 * bandwidth, and only the sparse IDs (up) and pooled vectors (down)
 * cross the host link. Dense operators (FC, interaction, activations)
 * still run on the host through the CpuBackend model, so the backend
 * isolates exactly the paper's bottleneck: RMC2's memory-bound SLS.
 *
 * Placement is per table. Host-resident tables time through the
 * inherited simulated-cache gather; offloaded tables never touch the
 * host hierarchy (dramLines = 0 — their bytes leave the DRAM roofline
 * ceiling entirely, which is what `recperf report` visualizes). Both
 * paths consume the per-table ID stream at one draw per pooled row, so
 * placement never shifts another table's trace (DESIGN.md §16).
 */

#ifndef RECPERF_BACKEND_NMP_BACKEND_HH
#define RECPERF_BACKEND_NMP_BACKEND_HH

#include "backend/cpu_backend.hh"

namespace recperf {

/**
 * Placement policy: does a table of @p storage_bytes offload under
 * @p config, given @p llc_share_bytes of effective host LLC? Exposed
 * for tests and for the CLI's placement report.
 */
bool nmpTableOffloaded(const NmpConfig &config, uint64_t storage_bytes,
                       double llc_share_bytes);

class NmpBackend : public CpuBackend
{
  public:
    explicit NmpBackend(const BackendConfig &config) : CpuBackend(config)
    {
    }

    BackendKind kind() const override { return BackendKind::Nmp; }

    void timeSls(TimingContext &ctx, size_t table_index,
                 OpTiming &t) override;
};

} // namespace recperf

#endif // RECPERF_BACKEND_NMP_BACKEND_HH
