/**
 * @file
 * Chaos tests for the replicated-shard failover layer.
 *
 * Seeded randomized fault schedules (replica kills, correlated rack
 * failures, straggler storms) are layered over the renewal-process
 * fault injector and run against invariant checks: accounting never
 * breaks (completed + failed == offered), runs terminate (no hangs),
 * replication rescues availability where a single copy demonstrably
 * fails, recovered replicas pay a warm-up penalty, and everything is
 * bit-identical for a fixed seed — including across tensor thread
 * counts.
 */

#include <gtest/gtest.h>

#include "core/thread_pool.hh"
#include "machine/machine_spec.hh"
#include "model/zoo.hh"
#include "resilience/fault_injector.hh"
#include "resilience/policies.hh"
#include "resilience/replica_set.hh"
#include "serving/distributed.hh"

namespace recperf {
namespace {

constexpr uint32_t kNodes = 2;
constexpr int kWarmup = 10;
constexpr int kIters = 200;

ShardedInference
makeSim()
{
    TimerOptions topts;
    topts.batch = 16;
    return ShardedInference(broadwell(), rmc1Small(), kNodes,
                            NetworkConfig{}, topts);
}

FaultOptions
renewalFaults(double mtbf_seconds, double mttr_seconds, uint64_t seed)
{
    FaultOptions f;
    f.shardMtbfSeconds = mtbf_seconds;
    f.shardMttrSeconds = mttr_seconds;
    f.seed = seed;
    return f;
}

RetryPolicy
standardRetry()
{
    RetryPolicy retry;
    retry.timeoutSeconds = 2e-3;
    retry.maxRetries = 4;
    return retry;
}

ReplicaOptions
replicasOf(uint32_t count, uint64_t seed = 2020)
{
    ReplicaOptions r;
    r.replicas = count;
    r.seed = seed;
    return r;
}

RunResult
runChaos(uint32_t replicas, const FaultOptions &faults,
         const ChaosSchedule *chaos, int iters = kIters,
         bool hedge_on = true)
{
    ShardedInference sim = makeSim();
    HedgePolicy hedge;
    hedge.enabled = hedge_on;
    RunOptions options;
    options.warmupIters = kWarmup;
    options.measureIters = iters;
    options.faults = faults;
    options.retry = standardRetry();
    options.hedge = hedge;
    options.replicas = replicasOf(replicas);
    options.chaos = chaos;
    return sim.run(options);
}

/** Rack failure covering the whole run: replica rank @p rank is down
 *  on every shard, forever. */
ChaosSchedule
permanentRackKill(uint32_t rank)
{
    ChaosSchedule chaos;
    ChaosEvent rack;
    rack.kind = ChaosEvent::Kind::KillRack;
    rack.start = 0.0;
    rack.end = 1e9;
    rack.replica = rank;
    chaos.add(rack);
    return chaos;
}

TEST(ChaosSchedule, ScriptedWindows)
{
    ChaosSchedule chaos;
    ChaosEvent kill;
    kill.kind = ChaosEvent::Kind::KillReplica;
    kill.start = 1.0;
    kill.end = 2.0;
    kill.shard = 1;
    kill.replica = 0;
    chaos.add(kill);

    // Half-open window: start inclusive, end exclusive.
    EXPECT_FALSE(chaos.forcedDown(1, 0, 0.999));
    EXPECT_TRUE(chaos.forcedDown(1, 0, 1.0));
    EXPECT_TRUE(chaos.forcedDown(1, 0, 1.999));
    EXPECT_FALSE(chaos.forcedDown(1, 0, 2.0));
    // Other replicas and shards are untouched.
    EXPECT_FALSE(chaos.forcedDown(1, 1, 1.5));
    EXPECT_FALSE(chaos.forcedDown(0, 0, 1.5));

    ChaosEvent storm;
    storm.kind = ChaosEvent::Kind::StragglerStorm;
    storm.start = 1.0;
    storm.end = 3.0;
    storm.factor = 4.0;
    chaos.add(storm);
    EXPECT_DOUBLE_EQ(chaos.serviceFactor(0.5), 1.0);
    EXPECT_DOUBLE_EQ(chaos.serviceFactor(1.5), 4.0);
    // A storm never marks replicas down.
    EXPECT_FALSE(chaos.forcedDown(0, 1, 1.5));
}

TEST(ChaosSchedule, RackKillIsCorrelatedAcrossShards)
{
    ChaosSchedule chaos = permanentRackKill(0);
    for (uint32_t shard = 0; shard < 8; ++shard) {
        EXPECT_TRUE(chaos.forcedDown(shard, 0, 5.0));
        EXPECT_FALSE(chaos.forcedDown(shard, 1, 5.0));
    }
}

TEST(ChaosSchedule, RandomScheduleDeterministicFromSeed)
{
    ChaosSchedule a = ChaosSchedule::random(9, 4, 2, 0.1, 12, 5e-3);
    ChaosSchedule b = ChaosSchedule::random(9, 4, 2, 0.1, 12, 5e-3);
    ASSERT_EQ(a.size(), 12u);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
        EXPECT_DOUBLE_EQ(a.events()[i].start, b.events()[i].start);
        EXPECT_DOUBLE_EQ(a.events()[i].end, b.events()[i].end);
        EXPECT_EQ(a.events()[i].shard, b.events()[i].shard);
        EXPECT_EQ(a.events()[i].replica, b.events()[i].replica);
    }

    ChaosSchedule c = ChaosSchedule::random(10, 4, 2, 0.1, 12, 5e-3);
    bool differs = false;
    for (size_t i = 0; i < c.size(); ++i) {
        if (c.events()[i].start != a.events()[i].start)
            differs = true;
    }
    EXPECT_TRUE(differs);
}

TEST(ChaosRun, AccountingInvariantUnderRandomSchedules)
{
    // Randomized kill/rack/storm schedules at several seeds: whatever
    // happens, every offered inference is accounted for and the run
    // terminates.
    for (uint64_t seed : {1ull, 7ull, 42ull}) {
        ChaosSchedule chaos =
            ChaosSchedule::random(seed, kNodes, 2, /*horizon=*/50e-3,
                                  /*events=*/10, /*mean_dur=*/2e-3);
        FaultOptions faults = renewalFaults(10e-3, 1e-3, seed);
        RunResult r = runChaos(2, faults, &chaos);
        EXPECT_EQ(r.completed + r.failed, static_cast<uint64_t>(kIters))
            << "seed " << seed;
        EXPECT_EQ(r.latency.count(), r.completed) << "seed " << seed;
    }
}

TEST(ChaosRun, NoHangWithZeroTimeout)
{
    // timeout 0 means "wait out any straggler": failed shards must
    // still fail fast rather than hang the run.
    ChaosSchedule chaos =
        ChaosSchedule::random(5, kNodes, 2, 50e-3, 8, 2e-3);
    FaultOptions faults = renewalFaults(5e-3, 1e-3, 5);
    ShardedInference sim = makeSim();
    RetryPolicy retry; // timeoutSeconds = 0
    retry.maxRetries = 3;
    HedgePolicy hedge;
    hedge.enabled = true;
    hedge.delaySeconds = 0.5e-3;
    RunOptions options;
    options.warmupIters = kWarmup;
    options.measureIters = kIters;
    options.faults = faults;
    options.retry = retry;
    options.hedge = hedge;
    options.replicas = replicasOf(2);
    options.chaos = &chaos;
    RunResult r = sim.run(options);
    EXPECT_EQ(r.completed + r.failed, static_cast<uint64_t>(kIters));
}

TEST(ChaosRun, RackKillOfPrimariesIsAbsorbedByReplication)
{
    // Replica rank 0 (every shard's primary) is down for the whole
    // run. With R = 2 the rank-1 replicas carry all traffic.
    ChaosSchedule chaos = permanentRackKill(0);
    RunResult r = runChaos(2, FaultOptions{}, &chaos);
    EXPECT_EQ(r.completed, static_cast<uint64_t>(kIters));
    EXPECT_EQ(r.failed, 0u);
    EXPECT_GT(r.failovers, 0u);
    EXPECT_GT(r.breakerOpens, 0u);
}

TEST(ChaosRun, SingleCopyDiesUnderTheSameRackKill)
{
    // The same schedule with R = 1 has no second-best replica to fail
    // over to: every inference fails, none hang.
    ChaosSchedule chaos = permanentRackKill(0);
    RunResult r = runChaos(1, FaultOptions{}, &chaos);
    EXPECT_EQ(r.completed, 0u);
    EXPECT_EQ(r.failed, static_cast<uint64_t>(kIters));
    EXPECT_EQ(r.failovers, 0u);
}

TEST(ChaosRun, ReplicationRescuesRenewalFailures)
{
    // Renewal-process failures (MTBF = 5x MTTR, seed chosen so the
    // single-copy run demonstrably loses inferences): adding a replica
    // per shard restores three-nines availability.
    FaultOptions faults = renewalFaults(5e-3, 1e-3, 12);
    RunResult r1 = runChaos(1, faults, nullptr, /*iters=*/400);
    RunResult r2 = runChaos(2, faults, nullptr, /*iters=*/400);
    EXPECT_LT(r1.availability(), 0.999);
    EXPECT_GE(r2.availability(), 0.999);
    EXPECT_GT(r2.availability(), r1.availability());
    EXPECT_GT(r2.failovers, 0u);
}

TEST(ChaosRun, BreakersOpenAndRecloseAcrossAKillWindow)
{
    // A single scripted kill: the victim's breaker must trip during
    // the window and re-close via probes after it ends.
    ChaosSchedule chaos;
    ChaosEvent kill;
    kill.kind = ChaosEvent::Kind::KillReplica;
    kill.start = 0.0;
    kill.end = 3e-3;
    kill.shard = 0;
    kill.replica = 0;
    chaos.add(kill);

    RunResult r = runChaos(2, FaultOptions{}, &chaos);
    EXPECT_EQ(r.completed, static_cast<uint64_t>(kIters));
    EXPECT_GT(r.breakerOpens, 0u);
    EXPECT_GT(r.breakerCloses, 0u);
    EXPECT_GT(r.probesAdmitted, 0u);
}

TEST(ChaosRun, RecoveredReplicaPaysWarmupPenalty)
{
    // After the kill window the primary recovers with cold caches: the
    // auto-calibrated warm-up factor is > 1 and some post-recovery
    // service time is booked as warm-up penalty.
    ChaosSchedule chaos;
    ChaosEvent kill;
    kill.kind = ChaosEvent::Kind::KillReplica;
    kill.start = 0.0;
    kill.end = 2e-3;
    kill.shard = 0;
    kill.replica = 0;
    chaos.add(kill);

    RunResult r = runChaos(2, FaultOptions{}, &chaos);
    EXPECT_GT(r.warmupFactorUsed, 1.0);
    EXPECT_GT(r.warmupPenaltySeconds, 0.0);

    // A fault-free run books no warm-up penalty at all.
    RunResult clean = runChaos(2, FaultOptions{}, nullptr);
    EXPECT_DOUBLE_EQ(clean.warmupPenaltySeconds, 0.0);
}

TEST(ChaosRun, StragglerStormInflatesLatency)
{
    ChaosSchedule storm;
    ChaosEvent e;
    e.kind = ChaosEvent::Kind::StragglerStorm;
    e.start = 0.0;
    e.end = 1e9;
    e.factor = 5.0;
    storm.add(e);

    RunResult calm = runChaos(2, FaultOptions{}, nullptr);
    RunResult stormy = runChaos(2, FaultOptions{}, &storm);
    EXPECT_EQ(stormy.completed, static_cast<uint64_t>(kIters));
    EXPECT_GT(stormy.latency.p(50), 2.0 * calm.latency.p(50));
}

void
expectBitwiseEqual(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.failovers, b.failovers);
    EXPECT_EQ(a.breakerOpens, b.breakerOpens);
    EXPECT_EQ(a.breakerCloses, b.breakerCloses);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.hedgesIssued, b.hedgesIssued);
    ASSERT_EQ(a.latency.count(), b.latency.count());
    for (size_t i = 0; i < a.latency.count(); ++i) {
        EXPECT_EQ(a.latency.samples()[i], b.latency.samples()[i])
            << "latency sample " << i << " differs";
    }
    EXPECT_EQ(a.warmupPenaltySeconds, b.warmupPenaltySeconds);
    EXPECT_EQ(a.warmupFactorUsed, b.warmupFactorUsed);
}

TEST(ChaosDeterminism, IdenticalRunsAreBitwiseEqual)
{
    ChaosSchedule chaos =
        ChaosSchedule::random(3, kNodes, 2, 50e-3, 10, 2e-3);
    FaultOptions faults = renewalFaults(10e-3, 1e-3, 3);
    RunResult a = runChaos(2, faults, &chaos);
    RunResult b = runChaos(2, faults, &chaos);
    expectBitwiseEqual(a, b);
}

TEST(ChaosDeterminism, ThreadCountDoesNotPerturbResults)
{
    // The latency statistics of a replicated run must be bitwise equal
    // whether the tensor engine uses one thread or four
    // (RECPERF_THREADS=4): threading parallelises the arithmetic, and
    // must never reorder the simulation's random streams.
    ChaosSchedule chaos =
        ChaosSchedule::random(3, kNodes, 2, 50e-3, 6, 2e-3);
    FaultOptions faults = renewalFaults(10e-3, 1e-3, 3);

    int original = globalThreadCount();
    setGlobalThreadCount(1);
    RunResult one = runChaos(2, faults, &chaos);
    setGlobalThreadCount(4);
    RunResult four = runChaos(2, faults, &chaos);
    setGlobalThreadCount(original);

    expectBitwiseEqual(one, four);
}

TEST(ChaosDeterminism, ResilientPathMatchesAcrossThreadCounts)
{
    // Same guarantee at one copy per shard (the default R = 1), where
    // only retries and the breaker act on renewal failures.
    FaultOptions faults = renewalFaults(10e-3, 1e-3, 7);
    faults.stragglerProb = 0.1;
    faults.stragglerAlpha = 1.5;
    faults.stragglerMin = 2.0;

    RunOptions options;
    options.warmupIters = kWarmup;
    options.measureIters = kIters;
    options.faults = faults;
    options.retry = standardRetry();

    int original = globalThreadCount();
    setGlobalThreadCount(1);
    ShardedInference sim_one = makeSim();
    RunResult one = sim_one.run(options);
    setGlobalThreadCount(4);
    ShardedInference sim_four = makeSim();
    RunResult four = sim_four.run(options);
    setGlobalThreadCount(original);

    EXPECT_EQ(one.completed, four.completed);
    EXPECT_EQ(one.failed, four.failed);
    ASSERT_EQ(one.latency.count(), four.latency.count());
    for (size_t i = 0; i < one.latency.count(); ++i)
        EXPECT_EQ(one.latency.samples()[i], four.latency.samples()[i]);
}

} // namespace
} // namespace recperf
