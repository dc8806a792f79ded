/**
 * @file
 * Operator-level inference timing model.
 *
 * This is the substitute for the paper's physical Haswell/Broadwell/
 * Skylake testbed. For each operator of a model configuration it
 * combines:
 *
 *  - a roofline compute term: FLOPs / (SIMD achieved FLOPs/cycle x
 *    frequency), with batch-dependent AVX-2/AVX-512 efficiency (§V);
 *  - a memory term: SparseLengthsSum generates its actual sparse-ID
 *    gather trace (Zipf + temporal re-reference) and plays it through
 *    the machine's simulated cache hierarchy, so hit/miss behaviour —
 *    including shared-LLC contention and inclusive back-invalidation
 *    under co-location — is mechanistic, not assumed. FC layers use an
 *    analytic residency model (which cache level the weights live in,
 *    shrunk by co-located tenants' LLC pressure);
 *  - a fixed per-operator framework dispatch overhead (Caffe2-style);
 *  - optional hyperthreading penalties (FC 1.6x, SLS 1.3x; §VI).
 *
 * Latency is the serial sum of operator latencies: the paper runs one
 * Caffe2 worker with one MKL thread per model instance (§IV).
 *
 * The per-operator cost models live in the pluggable ComputeBackend
 * (backend/compute_backend.hh): CpuBackend carries the models above
 * verbatim, NmpBackend re-models SLS as a near-memory engine. The
 * ModelTimer owns run structure and state — trace generators, cache
 * hierarchy, contention, aggregation — and hands each hook a
 * TimingContext snapshot.
 */

#ifndef RECPERF_TIMING_MODEL_TIMER_HH
#define RECPERF_TIMING_MODEL_TIMER_HH

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "backend/compute_backend.hh"
#include "machine/machine_spec.hh"
#include "model/config.hh"
#include "timing/op_timing.hh"
#include "trace/id_generator.hh"

namespace recperf {

/** Knobs for one timed model instance. */
struct TimerOptions
{
    int64_t batch = 1;

    /** One model per physical core (false) or two per core (true). */
    bool hyperthreading = false;

    /** Popularity skew of the embedding traffic. */
    double zipfAlpha = 1.1;

    /** Temporal re-reference probability (Fig 14 locality knob). */
    double repeatProb = 0.5;

    /**
     * Re-reference window in IDs. Sized so a single tenant's hot
     * embedding rows comfortably fit a server LLC but several
     * co-located tenants' do not (the Section VI contention regime).
     */
    size_t repeatWindow = 32768;

    uint64_t seed = 42;

    /** Which compute backend models this instance's operators. */
    BackendConfig backend;
};

/** Hyperthreading penalties measured in §VI. */
inline constexpr double kHtFcPenalty = 1.6;
inline constexpr double kHtSlsPenalty = 1.3;

/**
 * Tenants sharing one hierarchy (ColocationSim, Server) occupy
 * disjoint 16 TB address windows: tenant t attaches at
 * `kTenantRegionBytes * (t + 1)`.
 */
inline constexpr uint64_t kTenantRegionBytes = 1ull << 44;

/**
 * Times inferences of one model configuration on one machine.
 *
 * A ModelTimer owns per-table trace generators (so consecutive runs see
 * realistic re-reference) and either owns a single-tenant cache
 * hierarchy or is attached to a shared one by ColocationSim.
 */
class ModelTimer
{
  public:
    ModelTimer(const MachineSpec &machine, const ModelConfig &config,
               const TimerOptions &options);

    /**
     * Attach to an externally-owned shared hierarchy (co-location).
     * @param tenant this instance's private L1/L2 slot.
     * @param address_base distinct base so tenants never share lines.
     */
    void attach(CacheHierarchy *shared, uint32_t tenant,
                uint64_t address_base);

    /**
     * Report co-location pressure so the FC residency model can shrink
     * this tenant's effective LLC share.
     * @param active_tenants total co-located model instances.
     * @param other_dram_bytes_per_inf DRAM fill traffic injected by the
     *        other tenants between two of this tenant's inferences.
     */
    void setContention(uint32_t active_tenants,
                       double other_dram_bytes_per_inf);

    /**
     * Change the batch size for subsequent runs (dynamic batching in
     * the serving layer).
     */
    void setBatch(int64_t batch);

    /**
     * Time one inference, advancing cache and trace state. The result
     * lives in this timer and is overwritten by its next run.
     */
    const ModelTiming &run();

    /**
     * Run every timer of @p timers once, all at once on the thread
     * pool, then record their telemetry on the calling thread in list
     * order, so HwTelemetry sums exactly what consecutive run() calls
     * would. Each timer must own its hierarchy: the simulate step
     * touches only the timer's own caches, ID generators, contention
     * RNG and scratch, so co-located tenants sharing one hierarchy can
     * never take this path. Workers claim the list from its end, so a
     * caller that lists its heaviest timer last starts it first. At
     * one pool thread this is the serial loop.
     */
    static void runAll(const std::vector<ModelTimer *> &timers);

    /** The timing of this timer's most recent run. */
    const ModelTiming &timing() const { return timing_; }

    /**
     * Warm up, then return the average per-inference timing.
     */
    ModelTiming steadyState(int warmup_iters, int measure_iters);

    const MachineSpec &machine() const { return machine_; }
    const ModelConfig &config() const { return config_; }
    const TimerOptions &options() const { return options_; }

    /** The backend modeling this timer's operators. */
    const ComputeBackend &backend() const { return *backend_; }

    /** DRAM bytes this tenant filled during its most recent run(). */
    double lastDramBytes() const { return last_dram_bytes_; }

    /** The hierarchy this timer's gathers run through (owned or shared). */
    const CacheHierarchy *hierarchy() const { return hier_; }

  private:
    /** Snapshot the state a backend timing hook may read or advance. */
    TimingContext makeContext();

    /**
     * The two halves of run(). simulate() advances this timer's own
     * state into timing_ and allocates nothing once the timer is
     * built; publish(), on the calling thread, names each gather by
     * where it ran and folds the run into HwTelemetry (a no-op while
     * telemetry is off).
     */
    void simulate();
    void publish();

    /** Op slot @p i zeroed for its hook, keeping the op's name. */
    OpTiming &freshOp(size_t i);

    MachineSpec machine_;
    ModelConfig config_;
    TimerOptions options_;
    std::unique_ptr<ComputeBackend> backend_;

    std::unique_ptr<CacheHierarchy> owned_hier_;
    CacheHierarchy *hier_ = nullptr;
    uint32_t tenant_ = 0;
    uint64_t address_base_ = 0;

    uint32_t active_tenants_ = 1;
    double other_dram_bytes_per_inf_ = 0.0;
    double last_dram_bytes_ = 0.0;
    Rng contention_rng_{0};

    std::vector<std::unique_ptr<IdGenerator>> table_gens_;

    /** Per-run storage: the ops, named once at construction, and the
     *  SLS hook's row-address scratch, sized for the batch. */
    ModelTiming timing_;
    std::vector<uint64_t> row_addrs_;

    /** Each table's gather name on the host and on the NMP engine. */
    std::vector<std::array<std::string, 2>> sls_names_;
};

} // namespace recperf

#endif // RECPERF_TIMING_MODEL_TIMER_HH
