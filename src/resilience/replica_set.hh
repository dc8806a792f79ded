/**
 * @file
 * Replicated shards: health-checked routing, failover, and chaos.
 *
 * DeepRecSys-style serving replicates every table-wise shard R times so
 * that losing a node degrades latency, not availability. This module
 * supplies the building blocks the serving layer composes:
 *
 *  - ReplicaSet: R replicas of one shard, each with its own
 *    HealthTracker and CircuitBreaker. A router policy picks the
 *    replica for each attempt (`primary-first`, `least-loaded`,
 *    `power-of-two-choices`) among replicas whose breaker admits the
 *    request, and nominates the *second-best* replica as the hedge /
 *    failover target — a hedge goes to a known-good peer, not a blind
 *    duplicate.
 *  - Recovery semantics: a replica observed down and later up again
 *    pays a warm-up penalty (its simcache and embedding cache refill
 *    cold), modelled as a service-time multiplier that decays linearly
 *    over a warm-up window. The multiplier's magnitude defaults to the
 *    measured cold/steady ratio of the shard's own timing model.
 *  - ChaosSchedule: a seeded list of scripted fault windows layered on
 *    top of the renewal-process FaultInjector — single-replica kills,
 *    correlated rack failures (the same replica rank across every
 *    shard), and straggler storms — for chaos testing.
 *
 * Everything is deterministic for a fixed seed.
 */

#ifndef RECPERF_RESILIENCE_REPLICA_SET_HH
#define RECPERF_RESILIENCE_REPLICA_SET_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/rng.hh"
#include "resilience/circuit_breaker.hh"
#include "resilience/health.hh"

namespace recperf {

/** Replica-selection policies of the failover router. */
enum class RouterPolicy
{
    PrimaryFirst, ///< lowest admitted index (replica 0 is primary)
    LeastLoaded,  ///< least virtual outstanding work, then best EWMA
    PowerOfTwo,   ///< two seeded candidates, keep the less loaded
};

/** Parse a CLI router name; empty error string on success. */
bool routerPolicyFromName(const std::string &name, RouterPolicy *policy);

const char *routerPolicyName(RouterPolicy policy);

/** Replication / failover knobs of a sharded run. */
struct ReplicaOptions
{
    /** Replicas per shard (>= 1; at 1 there is no failover or hedge
     *  target). */
    uint32_t replicas = 1;

    RouterPolicy router = RouterPolicy::PrimaryFirst;

    /** Per-replica breaker configuration. */
    BreakerOptions breaker;

    /** Window over which a recovered replica warms back up. */
    double warmupSeconds = 2e-3;

    /**
     * Service-time multiplier right after recovery; decays linearly to
     * 1 over warmupSeconds. 0 auto-calibrates to the measured
     * cold-start/steady-state ratio of the shard timing model.
     */
    double warmupFactor = 0.0;

    uint64_t seed = 2020;

    /** Empty when the options are sane, else a description. */
    std::string validate() const;
};

/** One scripted chaos fault window. */
struct ChaosEvent
{
    enum class Kind
    {
        KillReplica,   ///< one (shard, replica) down for [start, end)
        KillRack,      ///< replica rank down on *every* shard
        StragglerStorm ///< all service times inflated by factor
    };

    Kind kind = Kind::KillReplica;
    double start = 0.0;
    double end = 0.0;
    uint32_t shard = 0;   ///< KillReplica only
    uint32_t replica = 0; ///< KillReplica / KillRack: replica rank
    double factor = 1.0;  ///< StragglerStorm inflation
};

/**
 * Seeded list of scripted fault windows, queried by the serving loop on
 * top of the FaultInjector's renewal processes.
 */
class ChaosSchedule
{
  public:
    void add(const ChaosEvent &event);

    /**
     * Draw a randomized schedule: @p events windows of all three kinds
     * spread uniformly over [0, horizon), with durations uniform in
     * [0.2, 1.0] x @p mean_duration. Deterministic from @p seed.
     */
    static ChaosSchedule random(uint64_t seed, uint32_t num_shards,
                                uint32_t replicas, double horizon_seconds,
                                uint32_t events,
                                double mean_duration_seconds);

    /** Whether a scripted window forces this replica down at @p now. */
    bool forcedDown(uint32_t shard, uint32_t replica, double now) const;

    /** Product of active straggler-storm factors at @p now (>= 1). */
    double serviceFactor(double now) const;

    size_t size() const { return events_.size(); }
    const std::vector<ChaosEvent> &events() const { return events_; }

  private:
    std::vector<ChaosEvent> events_;
};

/**
 * R replicas of one shard plus the routing state over them.
 *
 * The set does not model the replicas' compute itself — the caller owns
 * the timing — it owns *selection*: which replica an attempt goes to,
 * which peer backs it up, and the health/breaker/warm-up bookkeeping
 * fed back from attempt outcomes.
 */
class ReplicaSet
{
  public:
    /**
     * @param warmup_factor resolved post-recovery multiplier (the
     *        caller substitutes the measured cold/steady ratio when
     *        ReplicaOptions::warmupFactor is 0).
     */
    ReplicaSet(uint32_t shard, const ReplicaOptions &options,
               double warmup_factor);

    /** Router verdict: chosen replica and its failover/hedge peer. */
    struct Pick
    {
        int replica = -1;   ///< -1 when every breaker rejected
        int alternate = -1; ///< second-best admitted replica, or -1
    };

    /**
     * Select a replica (and its backup) for an attempt at @p now.
     * Consults every breaker, so open breakers are failed over and
     * half-open ones admit seeded probes.
     */
    Pick route(double now);

    /** Fold a successful attempt on @p replica taking @p latency. */
    void recordSuccess(uint32_t replica, double latency, double now);

    /** Fold a refused / timed-out attempt on @p replica. */
    void recordError(uint32_t replica, double now);

    /**
     * Tell the set what the fault processes say about @p replica at
     * @p now; a down -> up edge starts the warm-up window. Returns the
     * observed state unchanged (convenience for call sites).
     */
    bool observeUp(uint32_t replica, bool up, double now);

    /**
     * Post-recovery service multiplier (>= 1) of @p replica at @p now;
     * 1 once the warm-up window has fully decayed.
     */
    double warmupMultiplier(uint32_t replica, double now) const;

    uint32_t size() const
    {
        return static_cast<uint32_t>(replicas_.size());
    }

    const HealthTracker &health(uint32_t replica) const;
    const CircuitBreaker &breaker(uint32_t replica) const;
    CircuitBreaker &breaker(uint32_t replica);

    /** Sum of breaker trips across replicas. */
    uint64_t breakerOpens() const;

    /** Sum of half-open -> closed transitions across replicas. */
    uint64_t breakerCloses() const;

    /** Sum of admitted half-open probes across replicas. */
    uint64_t probesAdmitted() const;

  private:
    struct Replica
    {
        HealthTracker health;
        CircuitBreaker breaker;
        /** Virtual time until which issued work keeps this replica
         *  busy (least-loaded routing signal). */
        double busyUntil = 0.0;
        /** Last state seen by observeUp. */
        bool observedUp = true;
        /** Start of the current warm-up window; <0 = fully warm. */
        double recoveredAt = -1.0;

        Replica(const BreakerOptions &breaker_options, uint64_t salt)
            : breaker(breaker_options, salt)
        {}
    };

    double loadOf(const Replica &replica, double now) const;

    /** true when @p a routes ahead of @p b under the active policy. */
    bool better(const Replica &a, const Replica &b, double now) const;

    /** Trace instant when @p replica's breaker left @p before. */
    void noteBreakerTransition(uint32_t replica, BreakerState before,
                               double now) const;

    uint32_t shard_;
    ReplicaOptions options_;
    double warmup_factor_;
    Rng route_rng_;
    std::vector<Replica> replicas_;
};

} // namespace recperf

#endif // RECPERF_RESILIENCE_REPLICA_SET_HH
