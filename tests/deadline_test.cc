/**
 * @file
 * Tests for end-to-end deadline budgets: the Deadline arithmetic, the
 * serving layer's deadline shed/cancel accounting, and the shard
 * fan-out's budget-clamped retries and fail-fast path.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/thread_pool.hh"
#include "machine/machine_spec.hh"
#include "model/zoo.hh"
#include "obs/hw_counters.hh"
#include "resilience/deadline.hh"
#include "serving/distributed.hh"
#include "serving/server.hh"

namespace recperf {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(Deadline, DisabledIsInfinite)
{
    Deadline off{5.0, 0.0};
    EXPECT_FALSE(off.enabled());
    EXPECT_EQ(off.remaining(100.0), kInf);
    EXPECT_FALSE(off.expired(1e9));
    // Disabled budget keeps legacy timeout semantics: the fixed value
    // when set, unbounded when not.
    EXPECT_EQ(off.clampTimeout(2e-3, 6.0), 2e-3);
    EXPECT_EQ(off.clampTimeout(0.0, 6.0), kInf);
}

TEST(Deadline, RemainingDecrementsAndClamps)
{
    Deadline dl{1.0, 10e-3};
    EXPECT_TRUE(dl.enabled());
    EXPECT_NEAR(dl.remaining(1.0), 10e-3, 1e-12);
    EXPECT_NEAR(dl.remaining(1.0 + 4e-3), 6e-3, 1e-12);
    // Never negative, even well past expiry.
    EXPECT_DOUBLE_EQ(dl.remaining(2.0), 0.0);
    EXPECT_FALSE(dl.expired(1.0 + 9e-3));
    EXPECT_TRUE(dl.expired(1.0 + 11e-3));
    EXPECT_TRUE(dl.expired(2.0));
}

TEST(Deadline, ClampTimeoutTakesTheTighterBound)
{
    Deadline dl{0.0, 10e-3};
    // Fixed timeout tighter than the budget early on...
    EXPECT_DOUBLE_EQ(dl.clampTimeout(2e-3, 0.0), 2e-3);
    // ...the budget tighter once most of it is burned...
    EXPECT_DOUBLE_EQ(dl.clampTimeout(2e-3, 9e-3), 1e-3);
    // ...and an unbounded policy timeout still honors the budget.
    EXPECT_DOUBLE_EQ(dl.clampTimeout(0.0, 4e-3), 6e-3);
    // At/after expiry the clamp is zero, not negative.
    EXPECT_DOUBLE_EQ(dl.clampTimeout(2e-3, 20e-3), 0.0);
}

TEST(Deadline, CannotCoverAMedianAttemptOnceTheBudgetRunsLow)
{
    Deadline dl{0.0, 10e-3};
    EXPECT_FALSE(dl.cannotCover(0.0, 4e-3));
    EXPECT_FALSE(dl.cannotCover(6e-3, 4e-3)); // exactly covered
    EXPECT_TRUE(dl.cannotCover(7e-3, 4e-3));
    EXPECT_TRUE(dl.cannotCover(20e-3, 1e-9)); // expired covers nothing
    // A disabled budget covers any estimate.
    EXPECT_FALSE((Deadline{0.0, 0.0}.cannotCover(1e9, 1e9)));
}

TEST(Deadline, ValidationRejectsNonFinite)
{
    EXPECT_TRUE(validateDeadlineSeconds(0.0).empty());
    EXPECT_TRUE(validateDeadlineSeconds(0.25).empty());
    EXPECT_FALSE(validateDeadlineSeconds(-1.0).empty());
    EXPECT_FALSE(validateDeadlineSeconds(kInf).empty());
    EXPECT_FALSE(validateDeadlineSeconds(std::nan("")).empty());
}

ServerOptions
servingOptions()
{
    ServerOptions o;
    o.numWorkers = 2;
    o.maxBatch = 16;
    o.slaSeconds = 1.5e-3;
    o.jitterSigma = 0.05;
    return o;
}

TEST(ServerDeadline, NearZeroBudgetShedsEverythingWithoutHanging)
{
    // A budget below any feasible service time must not hang or
    // underflow: every item is rejected at admission and the
    // accounting still closes exactly.
    ServerOptions opts = servingOptions();
    opts.deadlineSeconds = 1e-9;
    Server server(broadwell(), rmc1Small(), TimerOptions{}, opts);
    ServingStats stats = server.runOpenLoop(50'000.0, 1'000);
    EXPECT_EQ(stats.completedItems(), 0u);
    EXPECT_EQ(stats.offeredItems(), 1'000u);
    EXPECT_EQ(stats.shedAdmissionDeadline + stats.deadlineShedQueue,
              1'000u);
}

TEST(ServerDeadline, ServedItemsNeverExceedTheBudget)
{
    // Under overload the deadline cancels late completions, so the
    // worst served latency is bounded by the budget itself.
    ServerOptions opts = servingOptions();
    opts.deadlineSeconds = 1.5e-3;
    Server server(broadwell(), rmc1Small(), TimerOptions{}, opts);
    ServingStats stats = server.runOpenLoop(400'000.0, 4'000);
    EXPECT_EQ(stats.offeredItems(), 4'000u);
    EXPECT_GT(stats.completedItems(), 0u);
    EXPECT_EQ(stats.deadlineMet, stats.completedItems());
    ASSERT_GT(stats.itemLatency.count(), 0u);
    EXPECT_LE(stats.itemLatency.p(100), opts.deadlineSeconds + 1e-12);
    // Overload must actually exercise the shed/cancel paths.
    EXPECT_GT(stats.shedAdmissionDeadline + stats.deadlineShedQueue +
                  stats.deadlineCancelled,
              0u);
}

TEST(ServerDeadline, DisabledBudgetMatchesLegacyRun)
{
    // deadlineSeconds = 0 must be bit-identical to the pre-deadline
    // serving path.
    ServerOptions legacy = servingOptions();
    ServerOptions off = servingOptions();
    off.deadlineSeconds = 0.0;
    Server a(broadwell(), rmc1Small(), TimerOptions{}, legacy);
    Server b(broadwell(), rmc1Small(), TimerOptions{}, off);
    ServingStats sa = a.runOpenLoop(100'000.0, 2'000);
    ServingStats sb = b.runOpenLoop(100'000.0, 2'000);
    EXPECT_EQ(sa.slaMet, sb.slaMet);
    EXPECT_EQ(sa.slaMissed, sb.slaMissed);
    EXPECT_EQ(sa.deadlineMet, 0u);
    ASSERT_EQ(sa.itemLatency.count(), sb.itemLatency.count());
    for (size_t i = 0; i < sa.itemLatency.count(); ++i)
        EXPECT_EQ(sa.itemLatency.samples()[i],
                  sb.itemLatency.samples()[i]);
}

RunOptions
shardOptions(int iters)
{
    RunOptions o;
    o.warmupIters = 10;
    o.measureIters = iters;
    return o;
}

TEST(ShardedDeadline, AccountingClosesUnderBudget)
{
    TimerOptions topts;
    topts.batch = 16;
    ShardedInference sim(broadwell(), rmc1Small(), 4, NetworkConfig{},
                         topts);
    RunOptions opts = shardOptions(200);
    opts.deadlineSeconds = 2e-3;
    opts.faults.stragglerProb = 0.2;
    opts.faults.seed = 11;
    opts.retry.timeoutSeconds = 3e-3;
    RunResult r = sim.run(opts);
    EXPECT_EQ(r.completed + r.failed + r.deadlineExpired, 200u);
    // Nothing completes past its budget: availability only counts
    // in-budget answers.
    EXPECT_LE(r.availability(), 1.0);
}

TEST(ShardedDeadline, HopelessBudgetFailsFastEveryInference)
{
    // A budget far below the p50 of a fresh attempt trips the
    // fail-fast check before the first shard: every inference is
    // deadline-shed, none burns retry cycles.
    TimerOptions topts;
    topts.batch = 16;
    ShardedInference sim(broadwell(), rmc1Small(), 4, NetworkConfig{},
                         topts);
    RunOptions opts = shardOptions(50);
    opts.deadlineSeconds = 1e-9;
    RunResult r = sim.run(opts);
    EXPECT_EQ(r.deadlineExpired, 50u);
    EXPECT_EQ(r.completed, 0u);
    EXPECT_GT(r.deadlineFastFails, 0u);
    EXPECT_EQ(r.retries, 0u);
}

/** HwTelemetry totals of a 40-inference RMC1 run over 4 shards. */
obs::HwTotals
shardTelemetry(double deadline_seconds)
{
    obs::HwTelemetry &telem = obs::HwTelemetry::global();
    telem.reset();
    telem.setEnabled(true);
    TimerOptions topts;
    topts.batch = 16;
    ShardedInference sim(broadwell(), rmc1Small(), 4, NetworkConfig{},
                         topts);
    RunOptions opts = shardOptions(40);
    opts.deadlineSeconds = deadline_seconds;
    RunResult r = sim.run(opts);
    EXPECT_EQ(r.deadlineExpired, deadline_seconds > 0.0 ? 40u : 0u);
    obs::HwTotals totals = telem.totals();
    telem.setEnabled(false);
    telem.reset();
    return totals;
}

TEST(ShardedDeadline, CancelledFanOutStillAdvancesEveryTimer)
{
    // The whole fan-out is issued before any shard resolves: even when
    // the first shard cancels on the budget, every shard timer and the
    // aggregator advanced their simulated state for the inference, so
    // telemetry matches a run in which every inference completes.
    obs::HwTotals hopeless = shardTelemetry(1e-9);
    obs::HwTotals open = shardTelemetry(0.0);
    EXPECT_GT(open.cache.l1.accesses, 0u);
    EXPECT_EQ(hopeless.cache.l1.accesses, open.cache.l1.accesses);
    EXPECT_EQ(hopeless.cache.l3.misses, open.cache.l3.misses);
    EXPECT_EQ(hopeless.dramLines, open.dramLines);
    EXPECT_EQ(hopeless.flops, open.flops);
    EXPECT_EQ(hopeless.seconds, open.seconds);
}

TEST(ShardedDeadline, DisabledBudgetMatchesLegacyRun)
{
    TimerOptions topts;
    topts.batch = 16;
    RunOptions opts = shardOptions(100);
    opts.faults.stragglerProb = 0.1;
    opts.faults.seed = 5;
    opts.retry.timeoutSeconds = 2e-3;

    ShardedInference legacy(broadwell(), rmc1Small(), 2,
                            NetworkConfig{}, topts);
    RunResult a = legacy.run(opts);

    RunOptions off = opts;
    off.deadlineSeconds = 0.0;
    ShardedInference with(broadwell(), rmc1Small(), 2, NetworkConfig{},
                          topts);
    RunResult b = with.run(off);

    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(b.deadlineExpired, 0u);
    ASSERT_EQ(a.latency.count(), b.latency.count());
    for (size_t i = 0; i < a.latency.count(); ++i)
        EXPECT_EQ(a.latency.samples()[i], b.latency.samples()[i]);
}

TEST(ShardedDeadline, ReplicaRoutingSkipsOverBudgetCopies)
{
    // With replicas and a straggler-prone primary, a tight budget
    // makes the router consult replica EWMAs: the skip counter only
    // moves when the deadline machinery is engaged.
    TimerOptions topts;
    topts.batch = 16;
    ShardedInference sim(broadwell(), rmc1Small(), 2, NetworkConfig{},
                         topts);
    RunOptions opts = shardOptions(300);
    opts.faults.stragglerProb = 0.4;
    opts.faults.stragglerMin = 4.0;
    opts.faults.seed = 9;
    ReplicaOptions ropts;
    ropts.replicas = 2;
    opts.replicas = ropts;
    opts.deadlineSeconds = 1.2e-3;
    RunResult r = sim.run(opts);
    EXPECT_EQ(r.completed + r.failed + r.deadlineExpired, 300u);

    RunOptions off = opts;
    off.deadlineSeconds = 0.0;
    ShardedInference base(broadwell(), rmc1Small(), 2, NetworkConfig{},
                          topts);
    RunResult b = base.run(off);
    EXPECT_EQ(b.replicaSkips, 0u);
    EXPECT_EQ(b.deadlineExpired, 0u);
}

TEST(ShardedDeadline, DeterministicAcrossThreadCounts)
{
    TimerOptions topts;
    topts.batch = 16;
    RunOptions opts = shardOptions(150);
    opts.deadlineSeconds = 2e-3;
    opts.faults.stragglerProb = 0.2;
    opts.faults.seed = 4;

    int original = globalThreadCount();
    setGlobalThreadCount(1);
    ShardedInference one(broadwell(), rmc1Small(), 2, NetworkConfig{},
                         topts);
    RunResult a = one.run(opts);
    setGlobalThreadCount(4);
    ShardedInference four(broadwell(), rmc1Small(), 2, NetworkConfig{},
                          topts);
    RunResult b = four.run(opts);
    setGlobalThreadCount(original);

    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.deadlineExpired, b.deadlineExpired);
    EXPECT_EQ(a.deadlineFastFails, b.deadlineFastFails);
    ASSERT_EQ(a.latency.count(), b.latency.count());
    for (size_t i = 0; i < a.latency.count(); ++i)
        EXPECT_EQ(a.latency.samples()[i], b.latency.samples()[i]);
}

} // namespace
} // namespace recperf
