#include "serving/server.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <queue>

#include "core/logging.hh"
#include "obs/timeseries.hh"
#include "obs/trace.hh"
#include "resilience/deadline.hh"
#include "serving/request_window.hh"

namespace recperf {

using obs::RequestOutcome;

namespace {

/** Min-heap entry: (free time, worker index). */
using WorkerSlot = std::pair<double, size_t>;

} // namespace

double
ServingStats::goodThroughput() const
{
    return duration > 0.0 ? static_cast<double>(slaMet) / duration : 0.0;
}

double
ServingStats::totalThroughput() const
{
    return duration > 0.0
        ? static_cast<double>(slaMet + slaMissed) / duration : 0.0;
}

double
ServingStats::slaFraction() const
{
    uint64_t total = completedItems();
    return total > 0 ? static_cast<double>(slaMet) /
        static_cast<double>(total) : 0.0;
}

double
ServingStats::servedFraction() const
{
    uint64_t offered = offeredItems();
    return offered > 0 ? static_cast<double>(completedItems()) /
        static_cast<double>(offered) : 0.0;
}

double
ServingStats::qualityScore() const
{
    uint64_t served = completedItems();
    return served > 0 ? qualitySum / static_cast<double>(served) : 0.0;
}

double
ServingStats::deadlineGoodput() const
{
    return duration > 0.0
        ? static_cast<double>(deadlineMet) / duration : 0.0;
}

void
ServingStats::exportTo(obs::MetricsRegistry &registry) const
{
    registry.counter("serving.items.sla_met").add(slaMet);
    registry.counter("serving.items.sla_missed").add(slaMissed);
    registry.counter("serving.items.shed").add(shedItems);
    registry.counter("serving.items.dropped_low_priority")
        .add(droppedLowPriority);
    registry.counter("serving.batches.total").add(serviceTime.count());
    registry.counter("serving.batches.degraded").add(degradedBatches);
    // Deadline/brownout telemetry appears only when those features saw
    // traffic, so legacy runs export byte-identical metric sets.
    if (shedAdmissionDeadline)
        registry.counter("serving.shed.admission_deadline")
            .add(shedAdmissionDeadline);
    if (deadlineShedQueue)
        registry.counter("serving.deadline.shed").add(deadlineShedQueue);
    if (deadlineCancelled)
        registry.counter("serving.deadline.cancelled")
            .add(deadlineCancelled);
    if (deadlineMet) {
        registry.counter("serving.deadline.met").add(deadlineMet);
        registry.gauge("serving.throughput.deadline_goodput_items_per_s")
            .set(deadlineGoodput());
    }
    if (brownoutTransitions)
        registry.counter("serving.brownout.transitions")
            .add(brownoutTransitions);
    bool any_level = false;
    for (int l = 1; l < kBrownoutLevels; ++l)
        any_level = any_level || brownoutItems[l] > 0;
    if (any_level || brownoutTransitions) {
        for (int l = 0; l < kBrownoutLevels; ++l) {
            registry.counter(strprintf("serving.brownout.items.l%d", l))
                .add(brownoutItems[l]);
        }
        registry.gauge("serving.brownout.quality_score")
            .set(qualityScore());
        registry.gauge("serving.brownout.final_level")
            .set(static_cast<double>(finalBrownoutLevel));
    }
    registry.gauge("serving.duration_seconds").set(duration);
    registry.gauge("serving.throughput.within_sla_items_per_s")
        .set(goodThroughput());
    registry.gauge("serving.throughput.total_items_per_s")
        .set(totalThroughput());

    obs::LatencyHistogram item =
        registry.histogram("serving.item_latency_seconds");
    for (double s : itemLatency.samples())
        item.record(s);
    obs::LatencyHistogram service =
        registry.histogram("serving.batch_service_seconds");
    for (double s : serviceTime.samples())
        service.record(s);
    obs::LatencyHistogram fc =
        registry.histogram("serving.batch_fc_seconds");
    for (double s : fcTime.samples())
        fc.record(s);
}

std::string
ServingStats::summarize(const obs::MetricsSnapshot &snap)
{
    struct Row { const char *label; const char *name; };
    // Offered items that were not served, in print order.
    static constexpr Row kUnserved[] = {
        {"shed at admission:", "serving.items.shed"},
        {"shed (deadline < p50 est):", "serving.shed.admission_deadline"},
        {"deadline-shed in queue:", "serving.deadline.shed"},
        {"cancelled mid-batch:", "serving.deadline.cancelled"},
        {"dropped low-prio:", "serving.items.dropped_low_priority"},
    };
    // Every count line right-aligns its number to column 33.
    auto line = [](const char *label, uint64_t n) {
        return strprintf("  %s %*llu\n", label,
                         static_cast<int>(30 - std::strlen(label)),
                         static_cast<unsigned long long>(n));
    };
    uint64_t met = snap.counter("serving.items.sla_met");
    uint64_t completed = met + snap.counter("serving.items.sla_missed");
    uint64_t offered = completed;
    for (const Row &row : kUnserved)
        offered += snap.counter(row.name);
    double duration = snap.gauge("serving.duration_seconds");

    std::string out = line("offered items:", offered);
    out += line("completed items:", completed);
    for (const Row &row : kUnserved) {
        if (uint64_t n = snap.counter(row.name))
            out += line(row.label, n);
    }
    uint64_t degraded = snap.counter("serving.batches.degraded");
    if (degraded) {
        out += strprintf("  degraded batches:  %12llu of %llu\n",
                         static_cast<unsigned long long>(degraded),
                         static_cast<unsigned long long>(
                             snap.counter("serving.batches.total")));
    }
    if (completed) {
        out += strprintf("  within SLA:        %12.1f%%\n",
                         100.0 * static_cast<double>(met) /
                             static_cast<double>(completed));
    }
    if (duration > 0.0) {
        out += strprintf("  duration:          %12.3f s\n", duration);
        out += strprintf(
            "  goodput:           %12.0f items/s within SLA\n",
            snap.gauge("serving.throughput.within_sla_items_per_s"));
    }
    uint64_t deadline_met = snap.counter("serving.deadline.met");
    if (deadline_met && duration > 0.0) {
        out += strprintf(
            "  deadline goodput:  %12.0f items/s within deadline\n",
            snap.gauge("serving.throughput.deadline_goodput_items_per_s"));
    }
    uint64_t brownout_transitions =
        snap.counter("serving.brownout.transitions");
    uint64_t level_items[kBrownoutLevels];
    bool browned = brownout_transitions > 0;
    for (int l = 0; l < kBrownoutLevels; ++l) {
        level_items[l] =
            snap.counter(strprintf("serving.brownout.items.l%d", l));
        browned = browned || (l > 0 && level_items[l] > 0);
    }
    if (browned) {
        out += strprintf("  brownout:          %12llu transitions, "
                         "quality %.3f\n",
                         static_cast<unsigned long long>(
                             brownout_transitions),
                         snap.gauge("serving.brownout.quality_score"));
        for (int l = 0; l < kBrownoutLevels; ++l) {
            if (!level_items[l])
                continue;
            out += strprintf(
                "    level %d (%s): %llu items\n", l,
                brownoutLevelName(static_cast<BrownoutLevel>(l)),
                static_cast<unsigned long long>(level_items[l]));
        }
    }
    static constexpr Row kRows[] = {
        {"item latency", "serving.item_latency_seconds"},
        {"batch service", "serving.batch_service_seconds"},
        {"batch FC time", "serving.batch_fc_seconds"},
    };
    for (const Row &row : kRows) {
        const obs::HistogramSnapshot *h = snap.histogram(row.name);
        if (!h || h->count == 0)
            continue;
        out += strprintf(
            "  %-14s mean %10s  p50 %10s  p95 %10s  p99 %10s\n",
            row.label, obs::humanSeconds(h->mean()).c_str(),
            obs::humanSeconds(h->percentile(50)).c_str(),
            obs::humanSeconds(h->percentile(95)).c_str(),
            obs::humanSeconds(h->percentile(99)).c_str());
    }
    return out;
}

Server::Server(const MachineSpec &machine, const ModelConfig &config,
               const TimerOptions &timer_options,
               const ServerOptions &options)
    : machine_(machine), options_(options),
      jitter_rng_(options.seed ^ 0xa5a5a5a5ULL),
      arrival_rng_(options.seed ^ 0x5a5a5a5aULL),
      priority_rng_(options.seed ^ 0x3c3c3c3cULL)
{
    RP_ASSERT(options_.numWorkers >= 1, "server needs at least one worker");
    RP_ASSERT(options_.maxBatch >= 1, "maxBatch must be positive");
    if (options_.degrade.enabled) {
        RP_ASSERT(options_.degrade.degradedMaxBatch >= 1,
                  "degraded batch cap must be positive");
    }
    RP_ASSERT(options_.clusterReplicas >= 1,
              "the serving tier needs at least one replica");
    RP_ASSERT(options_.healthyReplicas <= options_.clusterReplicas,
              "healthy replicas (%u) cannot exceed the cluster's %u",
              options_.healthyReplicas, options_.clusterReplicas);
    for (const std::string &err :
         {validateDeadlineSeconds(options_.deadlineSeconds),
          options_.brownout.validate(), options_.faults.validate()})
        RP_ASSERT(err.empty(), "%s", err.c_str());

    hier_ = machine_.makeHierarchy(options_.numWorkers);
    bool ht = options_.numWorkers > machine_.coresPerSocket;
    for (uint32_t w = 0; w < options_.numWorkers; ++w) {
        TimerOptions topts = timer_options;
        topts.hyperthreading = ht;
        topts.seed = timer_options.seed + 0x2000ull * (w + 1);
        topts.batch = options_.maxBatch;
        auto timer = std::make_unique<ModelTimer>(machine_, config, topts);
        timer->attach(hier_.get(), w, kTenantRegionBytes * (w + 1));
        workers_.push_back(std::move(timer));
    }

    // Warm caches and converge the FC contention estimate (two passes,
    // as in ColocationSim). The final pass also seeds the p50 service
    // estimate that deadline admission uses before any batch has been
    // observed.
    std::vector<double> dram_bytes(workers_.size(), 0.0);
    for (int pass = 0; pass < 2; ++pass) {
        double service_sum = 0.0;
        uint64_t service_runs = 0;
        for (size_t w = 0; w < workers_.size(); ++w) {
            double observed = 0.0;
            for (int i = 0; i < 3; ++i) {
                service_sum += workers_[w]->run().totalSeconds();
                ++service_runs;
                observed += workers_[w]->lastDramBytes();
            }
            dram_bytes[w] = observed / 3.0;
        }
        if (service_runs > 0) {
            warmServiceEstimate_ =
                service_sum / static_cast<double>(service_runs);
        }
        double total = 0.0;
        for (double b : dram_bytes)
            total += b;
        for (size_t w = 0; w < workers_.size(); ++w) {
            workers_[w]->setContention(
                static_cast<uint32_t>(workers_.size()),
                total - dram_bytes[w]);
        }
    }
}

uint32_t
Server::numWorkers() const
{
    return static_cast<uint32_t>(workers_.size());
}

double
Server::serviceBatch(size_t worker, int64_t batch, double now,
                     FaultInjector &faults, double *fc_seconds,
                     BrownoutLevel level, double *fault_mult)
{
    // Brownout levels shrink the modeled work. L1+ scores only a
    // fraction of the candidate set (smaller effective batch — every
    // request still gets an answer, from fewer scored candidates).
    int64_t effective = batch;
    if (level != BrownoutLevel::Full) {
        effective = std::max<int64_t>(
            1, static_cast<int64_t>(std::ceil(
                   static_cast<double>(batch) *
                   options_.brownout.truncateFraction)));
    }
    workers_[worker]->setBatch(effective);
    const ModelTiming *timed = &workers_[worker]->run();
    // L2 skips low-value embedding tables; L3 answers from cached
    // (stale) pooled embeddings. Both scale the SLS ops *inside* a
    // copy of the timing record, so the per-op trace spans keep tiling
    // the batch span exactly and the FC share is untouched.
    ModelTiming scaled;
    if (level == BrownoutLevel::SkipTables ||
        level == BrownoutLevel::StaleEmbeddings) {
        double keep = level == BrownoutLevel::SkipTables
            ? 1.0 - options_.brownout.skipTableFraction : 0.0;
        scaled = *timed;
        timed = &scaled;
        for (OpTiming &op : scaled.ops) {
            if (op.kind != OpKind::SLS)
                continue;
            op.seconds *= keep;
            op.computeSeconds *= keep;
            op.memorySeconds *= keep;
            op.dispatchSeconds *= keep;
            op.offloadSeconds *= keep;
            op.transferBytes =
                static_cast<uint64_t>(op.transferBytes * keep);
        }
    }
    double jitter = std::exp(jitter_rng_.nextGaussian() *
                             options_.jitterSigma);
    // The lognormal jitter is benign environment noise; the injected
    // fault multiplier is the straggler cause, reported separately so
    // the request log can split clean service from straggler excess.
    double fault = faults.serviceMultiplier(now);
    jitter *= fault;
    if (fault_mult)
        *fault_mult = fault;
    if (fc_seconds)
        *fc_seconds = timed->secondsByKind(OpKind::FC) * jitter;
    // Per-op child spans tile the enclosing batch span exactly because
    // each op is stretched by the same jitter as the batch total.
    obs::Tracer &tracer = obs::Tracer::global();
    if (tracer.enabled()) {
        emitOpSpans(tracer, *timed, now,
                    static_cast<uint32_t>(1 + worker), jitter);
    }
    return timed->totalSeconds() * jitter;
}

ServingStats
Server::runOpenLoop(double items_per_second, uint64_t num_items,
                    obs::RequestLogger *rlog,
                    obs::TimeSeriesSampler *sampler)
{
    RP_ASSERT(items_per_second > 0.0, "arrival rate must be positive");
    RP_ASSERT(num_items > 0, "need at least one item");

    // Poisson arrivals.
    std::vector<double> arrivals;
    arrivals.reserve(num_items);
    double t = 0.0;
    for (uint64_t i = 0; i < num_items; ++i) {
        t += arrival_rng_.nextExponential(items_per_second);
        arrivals.push_back(t);
    }

    // Priorities are drawn from their own stream so enabling degraded
    // mode does not perturb the arrival process.
    std::vector<bool> low_priority;
    if (options_.degrade.enabled &&
        options_.degrade.lowPriorityFraction > 0.0) {
        low_priority.resize(arrivals.size());
        for (size_t i = 0; i < arrivals.size(); ++i) {
            low_priority[i] = priority_rng_.nextBool(
                options_.degrade.lowPriorityFraction);
        }
    }

    // Wait budget of the admission controller: an item whose queueing
    // delay already exceeds this fraction of the SLA is shed, leaving
    // the remainder of the SLA for service time. With dead replicas in
    // the tier, the survivors carry their traffic, so both overload
    // responses arm earlier by the healthy fraction.
    double healthy = static_cast<double>(options_.healthyReplicas == 0
        ? options_.clusterReplicas : options_.healthyReplicas) /
        static_cast<double>(options_.clusterReplicas);
    double wait_budget = options_.slaSeconds *
        options_.admission.maxWaitFraction * healthy;
    double degrade_backlog = options_.degrade.backlogFactor * healthy *
        static_cast<double>(options_.maxBatch);

    // Deadline machinery: every item carries the same relative budget
    // from its arrival. A private burn-rate sensor feeds the brownout
    // controller, private so its windows/budget can differ from the
    // exported slo.* gauges; it observes the outcomes the request
    // window observes (request_window.hh).
    const bool deadline_on = options_.deadlineSeconds > 0.0;
    const double deadline_budget = options_.deadlineSeconds;
    std::optional<obs::TimeSeriesSampler> brown_sensor;
    BrownoutController brownout(options_.brownout);
    if (options_.brownout.enabled) {
        obs::TimeSeriesOptions sensor_opts;
        sensor_opts.shortWindowSeconds =
            options_.brownout.shortWindowSeconds;
        sensor_opts.longWindowSeconds =
            options_.brownout.longWindowSeconds;
        sensor_opts.errorBudget = options_.brownout.errorBudget;
        brown_sensor.emplace(sensor_opts);
    }
    // Every run restarts virtual time at 0, so it draws its fault
    // schedule afresh (with no fault configured it never slows a batch).
    FaultInjector faults(options_.faults, 0);

    // The measurement window starts here: drop constructor warm-up
    // telemetry and anchor the time-series cadence at t = 0.
    RequestWindow window(rlog, sampler,
                         brown_sensor ? &*brown_sensor : nullptr);
    window.start("batching queue", "worker ", numWorkers());
    obs::Tracer &tracer = obs::Tracer::global();

    std::priority_queue<WorkerSlot, std::vector<WorkerSlot>,
                        std::greater<>> free_at;
    for (size_t w = 0; w < workers_.size(); ++w)
        free_at.emplace(0.0, w);

    // Recent per-batch service times; their p50 is the admission
    // estimate a deadline is checked against. Seeded by the warm-up
    // calibration until real batches accumulate.
    std::vector<double> recent_service;

    ServingStats stats;
    size_t next = 0;
    double last_finish = 0.0;
    double last_assembly_end = 0.0;
    std::vector<size_t> batch;
    while (next < arrivals.size()) {
        auto [t_free, w] = free_at.top();
        free_at.pop();

        double start = std::max(t_free, arrivals[next]);

        // Backlog of items already waiting at this instant.
        size_t backlog_end = next;
        while (backlog_end < arrivals.size() &&
               arrivals[backlog_end] <= start) {
            ++backlog_end;
        }
        size_t backlog = backlog_end - next;

        bool degraded = options_.degrade.enabled &&
            static_cast<double>(backlog) > degrade_backlog;
        int64_t batch_cap = degraded
            ? std::min(options_.degrade.degradedMaxBatch,
                       options_.maxBatch)
            : options_.maxBatch;

        // The brownout ladder re-evaluates at every batch-formation
        // instant from the controller's own burn-rate sensor.
        BrownoutLevel level = BrownoutLevel::Full;
        if (options_.brownout.enabled) {
            BrownoutLevel prev = brownout.level();
            level = brownout.update(
                start,
                brown_sensor->burnRate(
                    start, options_.brownout.shortWindowSeconds),
                brown_sensor->burnRate(
                    start, options_.brownout.longWindowSeconds));
            if (level != prev) {
                ++stats.brownoutTransitions;
                if (tracer.enabled()) {
                    tracer.instant(
                        "brownout", "level", start, 0,
                        {{"from",
                          strprintf("%d", static_cast<int>(prev))},
                         {"to",
                          strprintf("%d", static_cast<int>(level))}});
                }
            }
        }

        double service_estimate = recent_service.empty()
            ? warmServiceEstimate_ : percentile(recent_service, 50.0);

        // Every record carries the batch-formation tags; an item that
        // never reached a worker spent all of its life in the queue.
        auto fill = [&](obs::RequestRecord &rec, size_t batch_items,
                        double clean, double straggler) {
            rec.brownoutLevel = static_cast<uint8_t>(level);
            rec.degraded = degraded;
            rec.batchItems = static_cast<uint32_t>(batch_items);
            rec.admissionEstimate = static_cast<float>(service_estimate);
            rec.at(obs::RequestPhase::Queue) = rec.start - rec.arrival;
            rec.at(obs::RequestPhase::Service) = clean;
            rec.at(obs::RequestPhase::Straggler) = straggler;
        };
        // Batch-formation admission of item i; Served means admitted.
        auto admit = [&](size_t i) {
            const Deadline dl{arrivals[i], deadline_budget};
            // A budget that burned away in the queue would only
            // complete late; one below the p50 estimate is hopeless.
            if (dl.expired(start))
                return RequestOutcome::ShedDeadlineQueue;
            if (dl.cannotCover(start, service_estimate))
                return RequestOutcome::ShedAdmissionDeadline;
            if (options_.admission.enabled &&
                start - arrivals[i] > wait_budget)
                return RequestOutcome::ShedAdmission;
            if (degraded && !low_priority.empty() && low_priority[i])
                return RequestOutcome::DroppedLowPriority;
            return RequestOutcome::Served;
        };

        // Form the batch, shedding and dropping as policy dictates.
        // An item arriving exactly at `start` has zero wait, so the
        // loop always consumes at least one item and terminates.
        batch.clear();
        for (; next < backlog_end &&
               static_cast<int64_t>(batch.size()) < batch_cap;
             ++next) {
            RequestOutcome verdict = admit(next);
            if (verdict == RequestOutcome::Served) {
                batch.push_back(next);
                continue;
            }
            window.end({.outcome = verdict, .id = next,
                        .arrival = arrivals[next], .start = start,
                        .finish = start,
                        .latency = start - arrivals[next],
                        .markAt = start},
                       [&](obs::RequestRecord &rec) {
                           fill(rec, 0, 0.0, 0.0);
                       });
        }
        if (batch.empty()) {
            // Everything waiting was shed or dropped; the worker polls
            // again for the (now nearer) head of the queue.
            free_at.emplace(start, w);
            continue;
        }
        if (degraded)
            ++stats.degradedBatches;

        double fc = 0.0;
        double fault_mult = 1.0;
        double service = serviceBatch(
            w, static_cast<int64_t>(batch.size()), start, faults, &fc,
            level, &fault_mult);
        double finish = start + service;
        stats.serviceTime.add(service);
        stats.fcTime.add(fc);
        recent_service.push_back(service);
        if (recent_service.size() > 64)
            recent_service.erase(recent_service.begin());
        if (tracer.enabled()) {
            std::string items = strprintf("%zu", batch.size());
            std::vector<std::pair<std::string, std::string>> args = {
                {"items", items},
                {"degraded", degraded ? "true" : "false"}};
            if (options_.brownout.enabled) {
                args.emplace_back(
                    "level", strprintf("%d", static_cast<int>(level)));
            }
            // The queue lane shows when each batch was at the head of
            // the queue being assembled. Batches overlap in queueing
            // time under backlog (the next batch's items arrive while
            // the previous one waits), so the span is clipped to start
            // after the previous assembly ends — batch starts are
            // monotone, keeping the lane's spans disjoint and the
            // trace nesting-clean at any load.
            double assembly_start =
                std::max(arrivals[batch.front()], last_assembly_end);
            tracer.span("serve", "batch_assembly", assembly_start,
                        start, 0, {{"items", items}});
            last_assembly_end = start;
            tracer.span("serve", "batch", start, finish,
                        static_cast<uint32_t>(1 + w), args);
        }

        // Counter events ride the batch start timestamp, which the
        // min-heap keeps monotonically non-decreasing — so counter
        // tracks stay valid Chrome-trace series and bit-identical
        // across host thread counts.
        window.tick(start);

        // Dividing out the injected fault multiplier splits the batch
        // service into clean service and straggler excess.
        double service_clean = service / fault_mult;
        double service_straggler = service - service_clean;
        for (size_t id : batch) {
            double latency = finish - arrivals[id];
            // A batch finishing past an item's deadline abandons its
            // answer instead of delivering it late.
            bool cancelled = deadline_on && latency > deadline_budget;
            bool violated = latency > options_.slaSeconds;
            if (!cancelled) {
                stats.itemLatency.add(latency);
                ++(violated ? stats.slaMissed : stats.slaMet);
                if (options_.brownout.enabled) {
                    ++stats.brownoutItems[static_cast<int>(level)];
                    stats.qualitySum +=
                        options_.brownout.qualityScore(level);
                }
            }
            window.end({.outcome = cancelled
                            ? RequestOutcome::Cancelled
                            : RequestOutcome::Served,
                        .id = id, .arrival = arrivals[id],
                        .start = start, .finish = finish,
                        .latency = latency, .slaViolated = violated,
                        .lane = static_cast<uint32_t>(1 + w),
                        .markAt = finish},
                       [&](obs::RequestRecord &rec) {
                           fill(rec, batch.size(), service_clean,
                                service_straggler);
                       });
        }
        last_finish = std::max(last_finish, finish);
        free_at.emplace(finish, w);
    }
    window.tick(last_finish);

    stats.shedItems = window.ended(RequestOutcome::ShedAdmission);
    stats.droppedLowPriority =
        window.ended(RequestOutcome::DroppedLowPriority);
    stats.shedAdmissionDeadline =
        window.ended(RequestOutcome::ShedAdmissionDeadline);
    stats.deadlineShedQueue =
        window.ended(RequestOutcome::ShedDeadlineQueue);
    stats.deadlineCancelled = window.ended(RequestOutcome::Cancelled);
    if (deadline_on)
        stats.deadlineMet = window.ended(RequestOutcome::Served);
    stats.finalBrownoutLevel =
        static_cast<uint32_t>(brownout.level());
    stats.duration = last_finish;
    return stats;
}

ServingStats
Server::runClosedLoop(uint64_t batches_per_worker)
{
    RP_ASSERT(batches_per_worker > 0, "need at least one batch");

    obs::Tracer &tracer = obs::Tracer::global();
    if (tracer.enabled()) {
        for (size_t w = 0; w < workers_.size(); ++w) {
            tracer.nameLane(static_cast<uint32_t>(1 + w),
                            strprintf("worker %zu", w));
        }
    }

    FaultInjector faults(options_.faults, 0);
    ServingStats stats;
    std::vector<double> busy(workers_.size(), 0.0);
    // Round-robin so tenant cache streams interleave realistically.
    for (uint64_t b = 0; b < batches_per_worker; ++b) {
        for (size_t w = 0; w < workers_.size(); ++w) {
            double fc = 0.0;
            double service = serviceBatch(w, options_.maxBatch, busy[w],
                                          faults, &fc);
            stats.serviceTime.add(service);
            stats.fcTime.add(fc);
            if (tracer.enabled()) {
                tracer.span("serve", "batch", busy[w], busy[w] + service,
                            static_cast<uint32_t>(1 + w),
                            {{"items",
                              strprintf("%lld",
                                        static_cast<long long>(
                                            options_.maxBatch))}});
            }
            busy[w] += service;
            for (int64_t i = 0; i < options_.maxBatch; ++i) {
                stats.itemLatency.add(service);
                if (service <= options_.slaSeconds)
                    ++stats.slaMet;
                else
                    ++stats.slaMissed;
            }
        }
    }
    stats.duration = *std::max_element(busy.begin(), busy.end());
    return stats;
}

} // namespace recperf
