#include "serving/distributed.hh"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "core/logging.hh"
#include "core/stats.hh"
#include "obs/trace.hh"
#include "sched/brownout.hh"
#include "serving/request_window.hh"

namespace recperf {

using obs::RequestOutcome;

namespace {

/** Config for one shard node: only its share of the embedding tables,
 *  whose row counts are @p rows. */
ModelConfig
shardConfig(const ModelConfig &base, uint32_t shard,
            const std::vector<int64_t> &rows)
{
    ModelConfig cfg;
    cfg.name = base.name + strprintf("-shard%u", shard);
    cfg.modelClass = base.modelClass;
    cfg.denseFeatures = 0;
    cfg.bottomMlp = {};
    cfg.emb = base.emb;
    cfg.interaction = InteractionKind::Concat;
    cfg.topMlp = {1}; // placeholder head; only SLS time is extracted
    cfg.emb.tableRows = rows;
    cfg.emb.numTables = static_cast<int64_t>(rows.size());
    cfg.validate();
    return cfg;
}

} // namespace

double
RunResult::availability() const
{
    uint64_t total = completed + failed + deadlineExpired;
    return total > 0 ? static_cast<double>(completed) /
        static_cast<double>(total) : 0.0;
}

double
RunResult::goodput() const
{
    return duration > 0.0 ? static_cast<double>(completed) / duration
                          : 0.0;
}

ShardedInference::ShardedInference(const MachineSpec &machine,
                                   const ModelConfig &config,
                                   uint32_t num_nodes,
                                   const NetworkConfig &network,
                                   const TimerOptions &options)
    : machine_(machine), config_(config), network_(network),
      options_(options)
{
    RP_ASSERT(num_nodes >= 1, "need at least one shard node");
    config_.validate();
    RP_ASSERT(config_.emb.numTables >= num_nodes,
              "%s: cannot spread %lld tables over %u nodes",
              config_.name.c_str(),
              static_cast<long long>(config_.emb.numTables), num_nodes);

    // Tables are dealt round-robin across shards so heterogeneous
    // per-table sizes spread evenly.
    shard_rows_.resize(num_nodes);
    for (int64_t t = 0; t < config_.emb.numTables; ++t)
        shard_rows_[static_cast<size_t>(t % num_nodes)].push_back(
            config_.emb.rowsOf(t));
    for (uint32_t s = 0; s < num_nodes; ++s) {
        TimerOptions opts = options_;
        opts.seed = options_.seed + 0x4000ull * (s + 1);
        shard_timers_.push_back(std::make_unique<ModelTimer>(
            machine_, shardConfig(config_, s, shard_rows_[s]), opts));
    }

    // The aggregator runs everything except the embedding gathers; it
    // is timed with the full model and its SLS share subtracted.
    agg_timer_ = std::make_unique<ModelTimer>(machine_, config_, options_);

    for (const auto &timer : shard_timers_)
        fanout_.push_back(timer.get());
    fanout_.push_back(agg_timer_.get());
}

uint32_t
ShardedInference::numNodes() const
{
    return static_cast<uint32_t>(shard_timers_.size());
}

void
RunResult::exportTo(obs::MetricsRegistry &registry) const
{
    registry.counter("sharded.inferences.completed").add(completed);
    registry.counter("sharded.inferences.failed").add(failed);
    registry.counter("sharded.hedges.issued").add(hedgesIssued);
    registry.counter("sharded.hedges.won").add(hedgeWins);
    registry.counter("sharded.retries").add(retries);
    registry.counter("sharded.timeouts").add(timeouts);
    registry.counter("sharded.shard_down_encounters")
        .add(shardDownEncounters);
    registry.counter("sharded.failovers").add(failovers);
    registry.counter("sharded.breaker.rejects").add(breakerRejects);
    registry.counter("sharded.breaker.opens").add(breakerOpens);
    registry.counter("sharded.breaker.closes").add(breakerCloses);
    registry.counter("sharded.breaker.probes_admitted")
        .add(probesAdmitted);
    // Deadline counters appear only when a budget was active, so
    // legacy runs export byte-identical metric sets.
    if (deadlineExpired)
        registry.counter("sharded.deadline.expired").add(deadlineExpired);
    if (deadlineFastFails)
        registry.counter("sharded.deadline.fast_fails")
            .add(deadlineFastFails);
    if (replicaSkips)
        registry.counter("sharded.deadline.replica_skips")
            .add(replicaSkips);
    registry.gauge("sharded.duration_seconds").set(duration);
    registry.gauge("sharded.availability").set(availability());
    registry.gauge("sharded.goodput_per_s").set(goodput());
    registry.gauge("sharded.wasted_seconds").set(wastedSeconds);
    registry.gauge("sharded.hedge_extra_seconds").set(hedgeExtraSeconds);
    registry.gauge("sharded.warmup_penalty_seconds")
        .set(warmupPenaltySeconds);
    registry.gauge("sharded.mean.slowest_shard_seconds")
        .set(slowestShardSeconds);
    registry.gauge("sharded.mean.network_seconds").set(networkSeconds);
    registry.gauge("sharded.mean.aggregator_seconds")
        .set(aggregatorSeconds);
    registry.gauge("sharded.network_bytes_per_inference")
        .set(networkBytes);
    obs::LatencyHistogram hist =
        registry.histogram("sharded.inference_latency_seconds");
    for (double s : latency.samples())
        hist.record(s);
    // Integrity counters appear only when an SDC controller ran, so
    // legacy runs export byte-identical metric sets.
    if (sdc.active) {
        registry.counter("integrity.injected.rows").add(sdc.injectedRows);
        registry.counter("integrity.injected.fc").add(sdc.injectedFc);
        registry.counter("integrity.detected.total").add(sdc.detected);
        registry.counter("integrity.detected.scrub")
            .add(sdc.detectedScrub);
        registry.counter("integrity.detected.inline")
            .add(sdc.detectedInline);
        registry.counter("integrity.detected.guard")
            .add(sdc.detectedGuard);
        registry.counter("integrity.detected.canary")
            .add(sdc.detectedCanary);
        registry.counter("integrity.cleared.rows").add(sdc.clearedRows);
        registry.counter("integrity.quarantined.rows")
            .add(sdc.quarantinedRows);
        registry.counter("integrity.repairs.completed").add(sdc.repairs);
        registry.counter("integrity.rehydrates").add(sdc.rehydrates);
        registry.counter("integrity.rows_rehydrated")
            .add(sdc.rowsRehydrated);
        registry.counter("integrity.responses.corrupted_served")
            .add(sdc.corruptedServed);
        registry.counter("integrity.responses.degraded")
            .add(sdc.degradedServed);
        registry.counter("integrity.canary.runs").add(sdc.canaryRuns);
        registry.counter("integrity.scrub.sweeps").add(sdc.scrubSweeps);
        registry.gauge("integrity.verify_seconds")
            .set(sdc.verifySeconds);
        registry.gauge("integrity.repair_seconds")
            .set(sdc.repairSeconds);
        registry.gauge("integrity.mean_quality")
            .set(completed > 0
                     ? sdc.qualitySum / static_cast<double>(completed)
                     : 1.0);
        obs::LatencyHistogram det =
            registry.histogram("integrity.detection_latency_seconds");
        for (double s : sdc.detectionLatency.samples())
            det.record(s);
    }
}

RunResult
ShardedInference::run(const RunOptions &options)
{
    RP_ASSERT(options.measureIters > 0,
              "need at least one measured iteration");
    for (const std::string &err :
         {options.replicas.validate(), validateRetryPolicy(options.retry),
          validateHedgePolicy(options.hedge, options.retry),
          options.faults.validate(),
          validateDeadlineSeconds(options.deadlineSeconds),
          options.sdc.validate()})
        RP_ASSERT(err.empty(), "%s", err.c_str());

    const uint32_t replicas = options.replicas.replicas;
    FaultInjector injector(options.faults, numNodes() * replicas);
    injector.setLog(options.faultLog);
    RunResult result;

    // The SDC controller engages when corruption events are injected
    // or any defense mechanism is on; otherwise no controller exists
    // and the loop below is byte-identical to a legacy run.
    std::unique_ptr<SdcController> sdc;
    if (options.faults.corruption.enabled() ||
        options.sdc.anyDefense()) {
        CorruptionTopology topo;
        topo.shards = numNodes();
        topo.replicas = replicas;
        topo.embDim = config_.emb.embDim;
        topo.tableRows = shard_rows_;
        // Aggregator FC state, modeled as one row per output neuron
        // carrying the stack's average per-neuron parameter load.
        int64_t neurons = 0;
        for (int64_t w : config_.bottomMlp)
            neurons += w;
        for (int64_t w : config_.topMlp)
            neurons += w;
        if (neurons > 0) {
            topo.fcRows = neurons;
            topo.fcRowBits = config_.fcParamCount() * 32 / neurons;
        }
        if (options.faults.corruption.enabled())
            injector.setCorruptionTopology(topo);
        SdcOptions sdc_opts = options.sdc;
        if (sdc_opts.quarantineQuality <= 0.0)
            sdc_opts.quarantineQuality = BrownoutOptions{}.qualityScore(
                BrownoutLevel::StaleEmbeddings);
        sdc = std::make_unique<SdcController>(
            sdc_opts, topo, &injector, options.faults.seed,
            options_.batch, config_.emb.lookupsPerTable);
    }

    // Warmup doubles as calibration of the auto hedge delay (p95 of
    // clean shard service times) and of the post-recovery warm-up
    // factor: the very first run of each shard timer touches cold
    // simulated caches, so cold-iteration / steady-state SLS time *is*
    // the embedding-cache refill cost a revived replica pays.
    std::vector<double> cold;
    std::vector<double> calib;
    int warmup = std::max(options.warmupIters, 2);
    for (int i = 0; i < warmup; ++i) {
        ModelTimer::runAll(fanout_);
        for (auto &timer : shard_timers_) {
            double s = timer->timing().secondsByKind(OpKind::SLS);
            (i == 0 ? cold : calib).push_back(s);
        }
    }
    double hedge_delay = options.hedge.delaySeconds > 0.0
        ? options.hedge.delaySeconds : percentile(calib, 95.0);
    // A fresh attempt's p50, from the same calibration: the fail-fast
    // floor below which a deadline budget cannot buy a retry.
    double fresh_p50 = percentile(calib, 50.0);

    double warm_factor = options.replicas.warmupFactor;
    if (warm_factor <= 0.0) {
        double cold_mean = 0.0;
        for (double s : cold)
            cold_mean += s;
        cold_mean /= static_cast<double>(cold.size());
        warm_factor = fresh_p50 > 0.0
            ? std::clamp(cold_mean / fresh_p50, 1.0, 100.0) : 1.0;
    }
    result.warmupFactorUsed = warm_factor;
    std::vector<ReplicaSet> sets;
    sets.reserve(numNodes());
    for (uint32_t s = 0; s < numNodes(); ++s)
        sets.emplace_back(s, options.replicas, warm_factor);

    if (sdc)
        sdc->calibrate(fresh_p50, machine_.dram.streamGBps());

    // Measurement starts here: drop warm-up/calibration telemetry and
    // anchor the time-series cadence at virtual t = 0.
    RequestWindow window(options.requestLog, options.timeSeries);
    window.start("aggregator", "shard ", numNodes());
    obs::Tracer &tracer = obs::Tracer::global();
    if (sdc && tracer.enabled())
        sdc->setTracer(&tracer, static_cast<int>(numNodes()) + 1);
    // The shard lanes' spans of one inference, drawn once its outcome
    // is known so a cancelled fan-out can cut them at the cancellation
    // point.
    struct LaneSpan
    {
        double elapsed;
        bool ok;
        double base;
    };
    std::vector<LaneSpan> lane_spans;
    lane_spans.reserve(numNodes());

    double now = 0.0;
    double sum_slowest = 0.0;
    double sum_agg = 0.0;
    for (int i = 0; i < options.measureIters; ++i) {
        // Advance the corruption/scrub/repair/canary machinery to the
        // inference's issue time; canary executions tax the clock.
        if (sdc)
            now += sdc->beginInference(now);
        double issue = now;
        double slowest = 0.0;
        double elapsed_max = 0.0;
        // Cancelled once a shard gives up on the deadline, failed once
        // one exhausts its retries.
        RequestOutcome outcome = RequestOutcome::Served;
        // Request-record state: the critical (slowest-ok) shard's
        // breakdown defines the latency phases, and the retry/hedge/
        // breaker counts are this inference's deltas of the run's
        // counters, so they reconcile with the exported ones.
        const uint64_t retries0 = result.retries;
        const uint64_t hedges0 = result.hedgesIssued;
        const uint64_t hedge_wins0 = result.hedgeWins;
        const uint64_t rejects0 = result.breakerRejects;
        ShardOutcome crit;
        int32_t crit_shard = -1;
        double crit_base_clean = 0.0;
        double crit_verify = 0.0;
        double min_clean = 0.0;
        bool clamped = false;
        double offload = 0.0;
        // The whole fan-out is issued at once: every shard timer and
        // the aggregator advance together on the pool, and the shards
        // then resolve in shard order from the finished timings. Each
        // inference carries its own budget, anchored at issue time;
        // once any shard gives up on the deadline, the remaining shards
        // are never routed.
        const Deadline deadline{now, options.deadlineSeconds};
        ModelTimer::runAll(fanout_);
        lane_spans.clear();
        for (uint32_t s = 0; s < numNodes(); ++s) {
            const ModelTiming &shard_timing = shard_timers_[s]->timing();
            double base = shard_timing.secondsByKind(OpKind::SLS);
            // The fault-free shard time, before the scrub slowdown:
            // the request log charges the difference to the Scrub
            // phase instead of folding it into Service.
            double base_clean = base;
            if (sdc) {
                // Checksum re-reads of the background scrubber steal
                // table bandwidth from every gather.
                base *= sdc->serviceSlowdown();
            }
            ShardOutcome out = resolveReplicated(
                injector, sets[s], options.retry, options.hedge,
                hedge_delay, s, base, now, options.chaos, deadline,
                fresh_p50, sdc.get(), &result);
            double verify = 0.0;
            if (out.ok && sdc) {
                // Model the rows this batch touched on the serving
                // replica; inline sampled verification adds its read
                // cost to the shard's service time.
                verify = sdc->onShardLookup(s, out.replica, now);
                out.elapsed += verify;
            }
            if (tracer.enabled())
                lane_spans.push_back({out.elapsed, out.ok, base});
            if (window.recording()) {
                clamped = clamped || out.deadlineClamped;
                for (const OpTiming &op : shard_timing.ops)
                    offload += static_cast<double>(op.transferBytes);
                if (out.ok) {
                    if (crit_shard < 0 || base_clean < min_clean)
                        min_clean = base_clean;
                    if (crit_shard < 0 || out.elapsed > crit.elapsed) {
                        crit = out;
                        crit_shard = static_cast<int32_t>(s);
                        crit_base_clean = base_clean;
                        crit_verify = verify;
                    }
                }
            }
            elapsed_max = std::max(elapsed_max, out.elapsed);
            if (out.cancelled) {
                outcome = RequestOutcome::Cancelled;
                break;
            }
            if (out.ok)
                slowest = std::max(slowest, out.elapsed);
            else
                outcome = RequestOutcome::Failed;
        }

        double latency = 0.0;
        double mark_at = 0.0;
        double network = 0.0;
        double agg_seconds = 0.0;
        double guard_extra = 0.0;
        if (outcome == RequestOutcome::Cancelled) {
            // Deadline-shed: the aggregator never runs, the partial
            // shard work is wasted, and virtual time advances only by
            // what the abandoned attempt actually consumed (capped at
            // the budget — the cancellation point).
            latency = deadline.enabled()
                ? std::min(elapsed_max, deadline.budgetSeconds)
                : elapsed_max;
            result.wastedSeconds += elapsed_max;
            mark_at = now + latency;
            now += latency;
        } else {
            const ModelTiming &agg = agg_timer_->timing();
            agg_seconds =
                agg.totalSeconds() - agg.secondsByKind(OpKind::SLS);
            network = networkSeconds(nullptr);
            if (outcome == RequestOutcome::Served) {
                double total = slowest + network + agg_seconds;
                if (sdc) {
                    // The aggregation boundary: output guards and
                    // canary bookkeeping decide whether this response
                    // escapes corrupted, serves degraded, or pays
                    // guard time.
                    guard_extra = sdc->endInference(now + total)
                        .extraSeconds;
                    total += guard_extra;
                }
                if (tracer.enabled()) {
                    tracer.span("shard", "network", now + slowest,
                                now + slowest + network, 0);
                    tracer.span("shard", "aggregate",
                                now + slowest + network, now + total, 0);
                }
                result.latency.add(total);
                sum_slowest += slowest;
                sum_agg += agg_seconds;
                latency = total;
                now += total;
                mark_at = now;
            } else {
                // The aggregator abandons the inference once the
                // slowest shard exhausts its retries; no result is
                // produced.
                result.wastedSeconds += agg_seconds;
                latency = elapsed_max + network;
                mark_at = now + elapsed_max;
                now += elapsed_max + network;
            }
        }
        const double cut = outcome == RequestOutcome::Cancelled
            ? issue + latency : std::numeric_limits<double>::infinity();
        for (uint32_t s = 0; s < lane_spans.size(); ++s) {
            const LaneSpan &lane = lane_spans[s];
            tracer.span("shard", strprintf("sls s%u", s), issue,
                        std::min(issue + lane.elapsed, cut), 1 + s,
                        {{"ok", lane.ok ? "true" : "false"},
                         {"base_us", strprintf("%.3f", lane.base * 1e6)}});
        }
        if (sdc && outcome != RequestOutcome::Served)
            sdc->dropInference();
        window.end(
            {.outcome = outcome, .id = static_cast<uint64_t>(i),
             .arrival = issue, .start = issue, .finish = now,
             .latency = latency, .markAt = mark_at},
            [&](obs::RequestRecord &rec) {
                rec.retries = static_cast<uint16_t>(std::min<uint64_t>(
                    result.retries - retries0, UINT16_MAX));
                rec.hedges = static_cast<uint16_t>(std::min<uint64_t>(
                    result.hedgesIssued - hedges0, UINT16_MAX));
                rec.hedgeWins = static_cast<uint16_t>(std::min<uint64_t>(
                    result.hedgeWins - hedge_wins0, UINT16_MAX));
                rec.breakerRejects = static_cast<uint32_t>(
                    std::min<uint64_t>(result.breakerRejects - rejects0,
                                       UINT32_MAX));
                rec.deadlineClamped = clamped;
                rec.hedgeWon = crit.hedgeWon;
                rec.criticalShard = crit_shard;
                rec.replica = crit_shard >= 0
                    ? static_cast<int32_t>(crit.replica) : -1;
                rec.healthEwma = static_cast<float>(crit.healthEwma);
                rec.admissionEstimate = static_cast<float>(fresh_p50);
                rec.batchItems = static_cast<uint32_t>(options_.batch);
                rec.offloadBytes = offload;
                if (outcome != RequestOutcome::Served) {
                    // An abandoned fan-out spent its time waiting on
                    // shards: blame the retry lane. A failed one still
                    // made the network hop.
                    rec.at(obs::RequestPhase::Retry) =
                        outcome == RequestOutcome::Cancelled
                        ? latency : elapsed_max;
                    rec.at(obs::RequestPhase::Network) = network;
                    return;
                }
                // Decompose the critical shard's elapsed time:
                //  - Service: the fault-free minimum shard time (the
                //    floor every fan-out pays);
                //  - ShardStraggler: everything the slowest shard adds
                //    beyond that floor (imbalance + chaos slowdown);
                //  - Scrub: scrubber slowdown + inline verification +
                //    the aggregation boundary's guard time;
                //  - Retry/Hedge/Warmup: the critical shard's waits.
                rec.at(obs::RequestPhase::Service) = min_clean;
                rec.at(obs::RequestPhase::ShardStraggler) =
                    (crit_base_clean - min_clean) + crit.stragglerSeconds;
                rec.at(obs::RequestPhase::Retry) = crit.retryWaitSeconds;
                rec.at(obs::RequestPhase::Hedge) = crit.hedgeWaitSeconds;
                rec.at(obs::RequestPhase::Warmup) = crit.warmupSeconds;
                rec.at(obs::RequestPhase::Scrub) =
                    (crit.serviceSeconds - crit_base_clean) +
                    crit_verify + guard_extra;
                rec.at(obs::RequestPhase::Network) = network;
                rec.at(obs::RequestPhase::Aggregate) = agg_seconds;
            });
        // `now` only moves forward, so the counter tracks carry
        // monotone virtual timestamps.
        window.tick(now);
    }
    result.duration = now;
    result.completed = window.ended(RequestOutcome::Served);
    result.failed = window.ended(RequestOutcome::Failed);
    result.deadlineExpired = window.ended(RequestOutcome::Cancelled);

    if (sdc) {
        // Final scrub period + repair-queue drain: every resident
        // corruption resolves within its detection bound.
        sdc->finish(now);
        result.sdc = sdc->stats();
    }

    for (const ReplicaSet &set : sets) {
        result.breakerOpens += set.breakerOpens();
        result.breakerCloses += set.breakerCloses();
        result.probesAdmitted += set.probesAdmitted();
    }

    if (result.completed > 0) {
        result.slowestShardSeconds =
            sum_slowest / static_cast<double>(result.completed);
        result.aggregatorSeconds =
            sum_agg / static_cast<double>(result.completed);
    }
    // Pooled vectors: one embDim-vector per (sample, table) crosses the
    // network; with one node everything is local.
    result.networkSeconds = networkSeconds(&result.networkBytes);
    result.totalSeconds = result.slowestShardSeconds +
        result.networkSeconds + result.aggregatorSeconds;
    return result;
}

double
ShardedInference::shardNetworkBytes(uint32_t shard) const
{
    if (numNodes() <= 1)
        return 0.0;
    return static_cast<double>(options_.batch) *
        static_cast<double>(shard_rows_.at(shard).size()) *
        static_cast<double>(config_.emb.embDim) * 4.0;
}

double
ShardedInference::networkSeconds(double *bytes_out) const
{
    double bytes = 0.0;
    double seconds = 0.0;
    if (numNodes() > 1) {
        bytes = static_cast<double>(options_.batch) *
            static_cast<double>(config_.emb.numTables) *
            static_cast<double>(config_.emb.embDim) * 4.0;
        seconds = network_.rttUs * 1e-6 +
            bytes / (network_.bandwidthGBps * 1e9);
    }
    if (bytes_out)
        *bytes_out = bytes;
    return seconds;
}

ShardedInference::ShardOutcome
ShardedInference::resolveReplicated(FaultInjector &injector,
                                    ReplicaSet &set,
                                    const RetryPolicy &retry,
                                    const HedgePolicy &hedge,
                                    double hedge_delay, uint32_t shard,
                                    double base_seconds, double now,
                                    const ChaosSchedule *chaos,
                                    const Deadline &dl,
                                    double fresh_p50,
                                    const SdcController *sdc,
                                    RunResult *result)
{
    // Replica r of shard s runs failure process s*R + r; scripted chaos
    // windows override the renewal process, and a replica drained for
    // SDC rehydration counts as down so requests fail over. Every
    // query also tells the ReplicaSet what it saw, so down -> up edges
    // start the warm-up.
    auto replica_up = [&](uint32_t replica, double t) {
        bool up = injector.shardUp(shard * set.size() + replica, t);
        if (up && sdc && sdc->replicaDrained(shard, replica, t))
            up = false;
        if (up && chaos && chaos->forcedDown(shard, replica, t))
            up = false;
        return set.observeUp(replica, up, t);
    };
    auto multiplier = [&](double t) {
        double m = injector.serviceMultiplier(t);
        return chaos ? m * chaos->serviceFactor(t) : m;
    };

    double waited = 0.0;
    int prev_error_replica = -1;
    int max_attempts = retry.maxRetries + 1;
    // Request-log breakdown carried across attempts; every return
    // site stamps it onto the outcome without touching the elapsed
    // arithmetic.
    ShardOutcome out;
    auto abandoned = [&](bool was_cancelled) {
        out.elapsed = waited;
        out.ok = false;
        out.cancelled = was_cancelled;
        out.retryWaitSeconds = waited;
        return out;
    };
    // `body` = base * mult * warm of the winning copy: peel warm-up off
    // the top, then the fault excess, leaving the clean base.
    auto answered = [&](uint32_t replica, double elapsed, double body,
                        double warm, bool by_hedge) {
        out.elapsed = elapsed;
        out.ok = true;
        out.replica = replica;
        out.retryWaitSeconds = waited;
        out.serviceSeconds = base_seconds;
        out.warmupSeconds = body - body / warm;
        // Without a fault slowdown the round trip through `warm` can
        // land a few ulps below the base: the share is never negative.
        out.stragglerSeconds = std::max(0.0, body / warm - base_seconds);
        if (by_hedge) {
            out.hedgeWaitSeconds = hedge_delay;
            out.hedgeWon = true;
        }
        out.healthEwma = set.health(replica).ewmaSeconds();
        return out;
    };
    // A hedge to @p alt at @p t: its service body and warm-up factor,
    // or nothing when that copy is down.
    auto hedge_to = [&](uint32_t alt, double t,
                        double *warm) -> std::optional<double> {
        if (!replica_up(alt, t)) {
            ++result->shardDownEncounters;
            set.recordError(alt, t);
            return std::nullopt;
        }
        *warm = set.warmupMultiplier(alt, t);
        double body = base_seconds * multiplier(t) * *warm;
        ++result->hedgesIssued;
        result->hedgeExtraSeconds += body;
        result->hedgeExtraBytes += shardNetworkBytes(shard);
        return body;
    };
    for (int attempt = 0; attempt < max_attempts; ++attempt) {
        double t_start = now + waited;
        if (dl.expired(t_start))
            return abandoned(true);
        double remaining = dl.remaining(t_start);
        if (dl.cannotCover(t_start, fresh_p50)) {
            ++result->deadlineFastFails;
            return abandoned(true);
        }
        double timeout = dl.clampTimeout(retry.timeoutSeconds, t_start);
        if (dl.enabled() &&
            (retry.timeoutSeconds <= 0.0 ||
             timeout < retry.timeoutSeconds))
            out.deadlineClamped = true;
        bool hedge_fits = hedge.enabled && hedge_delay < remaining;
        ReplicaSet::Pick pick = set.route(t_start);
        if (dl.enabled() && pick.replica >= 0) {
            // Skip replicas whose learned EWMA latency already exceeds
            // the remaining budget: prefer the router's alternate when
            // it fits, otherwise abandon rather than send a doomed
            // request.
            auto fits = [&](int replica) {
                const HealthTracker &h =
                    set.health(static_cast<uint32_t>(replica));
                return h.successes() == 0 || h.ewmaSeconds() <= remaining;
            };
            if (!fits(pick.replica)) {
                ++result->replicaSkips;
                if (pick.alternate < 0 || !fits(pick.alternate))
                    return abandoned(true);
                std::swap(pick.replica, pick.alternate);
            }
        }
        if (pick.replica < 0) {
            // Every breaker rejected: nothing to send to. Pay the
            // detection latency and let the backoff ride until a
            // breaker half-opens.
            ++result->breakerRejects;
            result->wastedSeconds += retry.failFastSeconds;
            waited += retry.failFastSeconds;
        } else {
            auto primary = static_cast<uint32_t>(pick.replica);
            if (!replica_up(primary, t_start)) {
                ++result->shardDownEncounters;
                set.recordError(primary, t_start);
                prev_error_replica = pick.replica;
                // A down primary is rescued by hedging to the router's
                // second-best replica — if one is admitted and alive, and
                // answers within the attempt's timeout.
                double lost = retry.failFastSeconds;
                auto alt = static_cast<uint32_t>(pick.alternate);
                double t_hedge = t_start + hedge_delay;
                double warm = 1.0;
                std::optional<double> hedged;
                if (hedge_fits && pick.alternate >= 0)
                    hedged = hedge_to(alt, t_hedge, &warm);
                if (hedged && hedge_delay + *hedged <= timeout) {
                    ++result->hedgeWins;
                    ++result->failovers;
                    result->warmupPenaltySeconds += *hedged - *hedged / warm;
                    set.recordSuccess(alt, *hedged, t_hedge);
                    return answered(alt, waited + hedge_delay + *hedged,
                                    *hedged, warm, true);
                }
                if (hedged) {
                    // The rescue straggled past the timeout: it is
                    // abandoned like any other slow attempt.
                    ++result->timeouts;
                    set.recordError(alt, t_start + timeout);
                    lost = timeout;
                }
                result->wastedSeconds += lost;
                waited += lost;
            } else {
                double warm = set.warmupMultiplier(primary, t_start);
                double service =
                    base_seconds * multiplier(t_start) * warm;
                double primary_service = service;
                uint32_t winner = primary;
                double win_warm = warm;
                double win_body = service;
                auto alt = static_cast<uint32_t>(pick.alternate);
                double t_hedge = t_start + hedge_delay;
                double warm_alt = 1.0;
                std::optional<double> alt_service;
                if (hedge_fits && service > hedge_delay &&
                    pick.alternate >= 0)
                    alt_service = hedge_to(alt, t_hedge, &warm_alt);
                if (alt_service) {
                    set.recordSuccess(alt, *alt_service, t_hedge);
                    if (hedge_delay + *alt_service < service) {
                        ++result->hedgeWins;
                        result->warmupPenaltySeconds +=
                            *alt_service - *alt_service / warm_alt;
                        winner = alt;
                        service = hedge_delay + *alt_service;
                        win_warm = warm_alt;
                        win_body = *alt_service;
                    }
                }
                if (service > timeout) {
                    ++result->timeouts;
                    set.recordError(primary, t_start + timeout);
                    prev_error_replica = static_cast<int>(primary);
                    result->wastedSeconds += timeout;
                    waited += timeout;
                } else {
                    // The primary did answer (even when the hedge beat
                    // it), so its EWMA learns its own latency.
                    set.recordSuccess(primary, primary_service, t_start);
                    if (winner == primary) {
                        result->warmupPenaltySeconds +=
                            primary_service - primary_service / warm;
                    }
                    if (prev_error_replica >= 0 &&
                        winner !=
                            static_cast<uint32_t>(prev_error_replica))
                        ++result->failovers;
                    return answered(winner, waited + service, win_body,
                                    win_warm, winner != primary);
                }
            }
        }
        if (attempt + 1 < max_attempts) {
            ++result->retries;
            waited += retry.backoffBefore(attempt);
        }
    }
    return abandoned(false);
}

} // namespace recperf
