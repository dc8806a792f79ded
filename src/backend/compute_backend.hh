/**
 * @file
 * Pluggable compute backends: who models an operator's cost.
 *
 * The paper's central finding is that embedding-dominated models
 * (RMC2) spend >80% of inference latency in memory-bound
 * SparseLengthsSum, which CPU caches cannot fix — RecNMP-style
 * near-memory lookup offload is the architectural answer. A
 * ComputeBackend models the cost of that comparison: every OpTiming
 * producer the ModelTimer used to own (FC residency model,
 * simulated-cache SLS gather, concat / batch-MM / activation) is a
 * backend method, so a backend can re-model any operator's cost
 * without touching the timing layer. A ModelTimer owns its backend,
 * built from TimerOptions::backend.
 *
 * The functional kernels take no backend: near-memory lookup is data
 * movement, not new math, so gemmBt and the SLS forwards call
 * KernelCache directly and their results are a function of the ISA
 * tier alone, whichever backend times the model.
 *
 * CpuBackend is backend #0: the verbatim ModelTimer cost model.
 * NmpBackend re-models SLS as a rank-level near-memory engine
 * (nmp_backend.hh).
 *
 * Determinism contract (DESIGN.md §16):
 *  - every backend consumes the per-table ID-generator stream at the
 *    same rate (one draw per pooled row), so switching backends — or
 *    mixing placements — never shifts another table's trace;
 *  - timing state the backend may read lives in TimingContext; the
 *    only RNG a timing hook may draw from is ctx.contentionRng, in
 *    deterministic per-op order.
 */

#ifndef RECPERF_BACKEND_COMPUTE_BACKEND_HH
#define RECPERF_BACKEND_COMPUTE_BACKEND_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/rng.hh"
#include "machine/machine_spec.hh"
#include "model/config.hh"
#include "timing/op_timing.hh"
#include "trace/id_generator.hh"

namespace recperf {

/** Registered backend families. */
enum class BackendKind
{
    Cpu = 0, ///< host SIMD execution + calibrated cache/roofline model
    Nmp = 1, ///< near-memory (PIM) SparseLengthsSum engine on top of Cpu
};

/** Stable lowercase name ("cpu" / "nmp"). */
const char *backendKindName(BackendKind kind);

/** Parse a backend name; false on unknown names. */
bool backendKindFromName(const std::string &name, BackendKind *out);

/** Which embedding tables the NMP engine owns. */
enum class NmpPlacement
{
    Auto = 0, ///< size/hotness policy decides per table
    All = 1,  ///< every table offloads (what-if upper bound)
    None = 2, ///< nothing offloads (backend plumbing, host behaviour)
};

const char *nmpPlacementName(NmpPlacement placement);
bool nmpPlacementFromName(const std::string &name, NmpPlacement *out);

/**
 * Near-memory engine model knobs (RecNMP/UPMEM-style). Defaults are
 * a conservative single-socket DIMM deployment: rank-level engines at
 * DDR4 per-rank bandwidth, commands and pooled results crossing a
 * host link that is fast but not free.
 */
struct NmpConfig
{
    /** PIM-enabled ranks ganged per socket (lookup concurrency). */
    uint32_t ranks = 8;

    /** In-rank gather bandwidth per rank (GB/s). */
    double rankGBps = 9.6;

    /** Per-row in-rank access overhead (activate + column access). */
    double rowAccessNs = 50.0;

    /** Host<->PIM command/result link bandwidth (GB/s). */
    double linkGBps = 12.0;

    /** Per-offloaded-op launch round trip (microseconds). */
    double launchUs = 2.0;

    /** Placement policy selector. */
    NmpPlacement placement = NmpPlacement::Auto;

    /** Auto placement: tables smaller than this stay on the host. */
    uint64_t minTableBytes = 1ull << 20;

    /**
     * Auto placement: tables whose storage fits within this fraction
     * of the tenant's LLC share stay on the host (their cold misses
     * are cache-fixable, so offload buys little and costs transfers).
     */
    double hostLlcFraction = 0.5;

    /** Empty when valid; else a description of the bad knob. */
    std::string validate() const;
};

/**
 * One validated backend selection: which backend family times the
 * model, and the NMP knobs when it is near-memory. The kernel ISA is
 * not part of it: that is a KernelCache setting of the functional
 * plane, which no timing backend reads.
 */
struct BackendConfig
{
    BackendKind kind = BackendKind::Cpu;
    NmpConfig nmp;
};

/**
 * Parse "--backend=<name>" into a backend config with default NMP
 * knobs. Returns "" and fills @p out on success, else a message naming
 * the bad name (callers exit 2 up front, before any kernel runs).
 */
std::string backendConfigFromSpec(const std::string &backend_name,
                                  BackendConfig *out);

/**
 * Everything a timing hook may read or advance. Built fresh for every
 * run by ModelTimer so the hooks see exactly the state the verbatim
 * pre-backend code saw, in the same order.
 */
struct TimingContext
{
    const MachineSpec &machine;
    const ModelConfig &config;

    int64_t batch = 1;
    bool hyperthreading = false;
    size_t repeatWindow = 32768;

    /** The hierarchy gathers run through (owned or shared). */
    CacheHierarchy *hier = nullptr;
    uint32_t tenant = 0;
    uint64_t addressBase = 0;

    uint32_t activeTenants = 1;
    double otherDramBytesPerInf = 0.0;
    double lastDramBytes = 0.0;

    /** Burstiness draws for the FC refetch model (timeFc only). */
    Rng *contentionRng = nullptr;

    /** Per-table sparse-ID trace generators (timeSls advances them). */
    std::vector<std::unique_ptr<IdGenerator>> *tableGens = nullptr;

    /** The timer's row-address scratch, reserved for batch x
     *  lookupsPerTable IDs, so a gather never allocates. */
    std::vector<uint64_t> *rowAddrs = nullptr;

    /** Effective LLC bytes available to this tenant's FC weights. */
    double llcShareBytes() const
    {
        return static_cast<double>(machine.l3.sizeBytes) /
            static_cast<double>(activeTenants);
    }
};

/**
 * One compute backend's cost model. Timing hooks are pure given
 * (context, args) except for the documented stateful reads (cache
 * hierarchy, ID generators, contention RNG).
 *
 * Each hook fills the op record @p t, which arrives zeroed except for
 * its name; ModelTimer owns the names and hooks never touch them.
 * Hooks run on pool workers during a sharded fan-out, so they must not
 * allocate.
 */
class ComputeBackend
{
  public:
    virtual ~ComputeBackend() = default;

    virtual BackendKind kind() const = 0;
    const char *name() const { return backendKindName(kind()); }

    /** The validated config this backend was built from. */
    const BackendConfig &config() const { return config_; }

    // One hook per OpTiming producer.
    virtual void timeFc(TimingContext &ctx, int64_t in, int64_t out,
                        OpTiming &t) = 0;
    virtual void timeSls(TimingContext &ctx, size_t table_index,
                         OpTiming &t) = 0;
    virtual void timeConcat(TimingContext &ctx, OpTiming &t) = 0;
    virtual void timeBatchMM(TimingContext &ctx, OpTiming &t) = 0;
    virtual void timeActivation(TimingContext &ctx, int64_t elements,
                                OpTiming &t) = 0;

  protected:
    explicit ComputeBackend(const BackendConfig &config)
        : config_(config)
    {
    }

    BackendConfig config_;
};

/** Build a backend instance for @p config (Cpu or Nmp). */
std::unique_ptr<ComputeBackend> makeBackend(const BackendConfig &config);

} // namespace recperf

#endif // RECPERF_BACKEND_COMPUTE_BACKEND_HH
