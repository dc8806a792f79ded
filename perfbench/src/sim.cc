#include "sim.hh"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "machine/machine_spec.hh"
#include "model/zoo.hh"
#include "obs/hw_counters.hh"
#include "serving/distributed.hh"
#include "serving/server.hh"
#include "simcache/hierarchy.hh"
#include "spans.hh"
#include "timing/model_timer.hh"
#include "trace/id_generator.hh"
#include "workload.hh"

namespace perfbench {

using recperf::ModelConfig;

namespace {

// sim-serve-rmc2: 4 co-located workers, dynamic batches of up to 16,
// Poisson arrivals at 16k items/s (below the simulated capacity).
constexpr uint32_t kServeWorkers = 4;
constexpr int64_t kServeMaxBatch = 16;
constexpr double kServeRate = 16000.0;
constexpr uint64_t kServeItems = 10;
constexpr double kServeSlaSeconds = 0.010;

// sim-shard-rmc1: 4 nodes x 2 replicas, batch 16 per node, 5% stragglers
// hedged after the calibrated p95.
constexpr uint32_t kShardNodes = 4;
constexpr int64_t kShardBatch = 16;
constexpr int kShardIters = 4;
constexpr double kStragglerProb = 0.05;

// Standalone per-layer probes of the traced run.
constexpr int kProbeRuns = 10;
constexpr size_t kProbeChunk = 1 << 14;
constexpr int kProbeChunks = 32;

void
addCacheCounters(Digest &d, const recperf::HierarchyCounters &c)
{
    for (const recperf::CacheStats *s : {&c.l1, &c.l2, &c.l3}) {
        d.add(s->accesses);
        d.add(s->hits);
        d.add(s->misses);
        d.add(s->evictions);
        d.add(s->backInvalidations);
    }
}

class ServeWorkload : public SimWorkload
{
  public:
    explicit ServeWorkload(uint64_t seed)
        : config_(recperf::rmc2Small()),
          server_(recperf::broadwell(), config_, timerOptions(seed),
                  serverOptions(seed))
    {
    }

    WindowStats
    window() override
    {
        WindowStats w;
        const Clock::time_point t0 = Clock::now();
        recperf::ServingStats st =
            server_.runOpenLoop(kServeRate, kServeItems);
        w.wallSeconds = secondsBetween(t0, Clock::now());
        w.virtualSeconds = st.duration;
        w.attempted = st.offeredItems();
        w.ok = st.completedItems();
        w.failed = st.shedItems + st.droppedLowPriority +
            st.shedAdmissionDeadline + st.deadlineShedQueue +
            st.deadlineCancelled;
        w.batches = st.serviceTime.count();
        w.runs = w.batches;
        w.telemetryRuns = w.batches;
        w.virtualLatency = st.itemLatency.samples();

        Digest d;
        d.add(st.itemLatency.samples());
        d.add(st.serviceTime.samples());
        d.add(st.fcTime.samples());
        for (uint64_t v :
             {st.slaMet, st.slaMissed, st.shedItems, st.droppedLowPriority,
              st.degradedBatches, st.shedAdmissionDeadline,
              st.deadlineShedQueue, st.deadlineCancelled})
            d.add(v);
        d.add(st.duration);
        w.digest = d.value();
        return w;
    }

    const ModelConfig &model() const override { return config_; }
    int64_t batch() const override { return kServeMaxBatch; }

  private:
    static recperf::TimerOptions
    timerOptions(uint64_t seed)
    {
        recperf::TimerOptions t;
        t.batch = kServeMaxBatch;
        t.seed = mixSeed(seed, 10);
        return t;
    }

    static recperf::ServerOptions
    serverOptions(uint64_t seed)
    {
        recperf::ServerOptions s;
        s.numWorkers = kServeWorkers;
        s.maxBatch = kServeMaxBatch;
        s.slaSeconds = kServeSlaSeconds;
        s.seed = mixSeed(seed, 11);
        return s;
    }

    ModelConfig config_;
    recperf::Server server_;
};

class ShardWorkload : public SimWorkload
{
  public:
    explicit ShardWorkload(uint64_t seed)
        : seed_(seed), config_(recperf::rmc1Small()),
          sim_(recperf::broadwell(), config_, kShardNodes,
               recperf::NetworkConfig{}, timerOptions(seed))
    {
    }

    WindowStats
    window() override
    {
        recperf::RunOptions ro;
        ro.warmupIters = 0;
        ro.measureIters = kShardIters;
        ro.faults.stragglerProb = kStragglerProb;
        ro.faults.seed = mixSeed(seed_, 100 + window_);
        ro.hedge.enabled = true;
        recperf::ReplicaOptions rep;
        rep.replicas = 2;
        rep.router = recperf::RouterPolicy::PowerOfTwo;
        rep.seed = mixSeed(seed_, 200 + window_);
        ro.replicas = rep;
        ++window_;

        WindowStats w;
        const Clock::time_point t0 = Clock::now();
        recperf::RunResult r = sim_.run(ro);
        w.wallSeconds = secondsBetween(t0, Clock::now());
        w.virtualSeconds = r.duration;
        w.attempted = static_cast<uint64_t>(kShardIters);
        w.ok = r.completed;
        w.failed = r.failed + r.deadlineExpired;
        // Replicated runs warm up for at least two iterations; every
        // iteration runs each shard timer and the aggregator once.
        const uint64_t per_iter = kShardNodes + 1;
        w.runs = (2 + static_cast<uint64_t>(kShardIters)) * per_iter;
        w.telemetryRuns = static_cast<uint64_t>(kShardIters) * per_iter;
        w.hedges = r.hedgesIssued;
        w.hedgeWins = r.hedgeWins;
        w.retries = r.retries;
        w.shardRequests = static_cast<uint64_t>(kShardIters) * kShardNodes +
            r.hedgesIssued + r.retries;
        w.virtualLatency = r.latency.samples();

        Digest d;
        d.add(r.latency.samples());
        for (uint64_t v :
             {r.completed, r.failed, r.deadlineExpired, r.deadlineFastFails,
              r.hedgesIssued, r.hedgeWins, r.retries, r.timeouts,
              r.shardDownEncounters, r.failovers, r.breakerRejects,
              r.breakerOpens, r.breakerCloses, r.probesAdmitted,
              r.replicaSkips})
            d.add(v);
        for (double v : {r.hedgeExtraSeconds, r.hedgeExtraBytes,
                         r.wastedSeconds, r.duration, r.totalSeconds,
                         r.slowestShardSeconds, r.networkSeconds,
                         r.aggregatorSeconds, r.warmupFactorUsed})
            d.add(v);
        w.digest = d.value();
        return w;
    }

    const ModelConfig &model() const override { return config_; }
    int64_t batch() const override { return kShardBatch; }

  private:
    static recperf::TimerOptions
    timerOptions(uint64_t seed)
    {
        recperf::TimerOptions t;
        t.batch = kShardBatch;
        t.seed = mixSeed(seed, 20);
        return t;
    }

    uint64_t seed_;
    uint64_t window_ = 0;
    ModelConfig config_;
    recperf::ShardedInference sim_;
};

/** Simulated cache counters accumulated over telemetry windows. */
struct CacheTotals
{
    uint64_t accesses = 0;
    uint64_t l1Hits = 0;
    uint64_t llcAccesses = 0;
    uint64_t llcHits = 0;
    uint64_t runs = 0;

    void
    add(const recperf::HierarchyCounters &c, uint64_t window_runs)
    {
        accesses += c.l1.accesses;
        l1Hits += c.l1.hits;
        llcAccesses += c.l3.accesses;
        llcHits += c.l3.hits;
        runs += window_runs;
    }
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Median host time of ModelTimer::run at the workload's model/batch. */
double
probeTimerRun(const SimWorkload &sim, uint64_t seed, SpanLog &spans)
{
    recperf::TimerOptions t;
    t.batch = sim.batch();
    t.seed = seed;
    recperf::ModelTimer timer(recperf::broadwell(), sim.model(), t);
    (void)timer.run();
    std::vector<double> runs;
    for (int i = 0; i < kProbeRuns; ++i) {
        double s = 0.0;
        {
            ScopedSpan span(&spans, "timing.run", &s);
            (void)timer.run();
        }
        runs.push_back(s);
    }
    return median(runs);
}

/** Median host ns per Zipf+repeat ID draw and per simulated access. */
void
probeTraceAndCache(const SimWorkload &sim, uint64_t seed, SpanLog &spans,
                   double *ns_per_draw, double *ns_per_access)
{
    const recperf::TimerOptions defaults;
    recperf::TraceProfile profile{"perfbench", defaults.zipfAlpha,
                                  defaults.repeatProb,
                                  defaults.repeatWindow};
    auto gen = recperf::makeGenerator(profile, sim.model().emb.rowsOf(0),
                                      recperf::Rng(seed));
    auto hier = recperf::broadwell().makeHierarchy(1);
    const uint64_t row_bytes =
        static_cast<uint64_t>(sim.model().emb.rowBytes());
    const uint64_t lines = (row_bytes + 63) / 64;
    const uint64_t base = uint64_t{1} << 40;

    std::vector<int64_t> ids(kProbeChunk);
    std::vector<double> draw, access;
    for (int c = 0; c < kProbeChunks; ++c) {
        double d = 0.0, a = 0.0;
        {
            ScopedSpan span(&spans, "trace.draw", &d);
            for (int64_t &id : ids)
                id = gen->next();
        }
        {
            ScopedSpan span(&spans, "simcache.access", &a);
            for (int64_t id : ids) {
                for (uint64_t l = 0; l < lines; ++l)
                    (void)hier->access(0, base +
                                              static_cast<uint64_t>(id) *
                                                  row_bytes +
                                              l * 64);
            }
        }
        draw.push_back(d * 1e9 / static_cast<double>(kProbeChunk));
        access.push_back(a * 1e9 /
                         static_cast<double>(kProbeChunk * lines));
    }
    *ns_per_draw = median(draw);
    *ns_per_access = median(access);
}

} // namespace

bool
isSimWorkload(const std::string &name)
{
    return name == "sim-serve-rmc2" || name == "sim-shard-rmc1";
}

std::unique_ptr<SimWorkload>
makeSimWorkload(const std::string &name, uint64_t seed)
{
    if (name == "sim-serve-rmc2")
        return std::make_unique<ServeWorkload>(seed);
    if (name == "sim-shard-rmc1")
        return std::make_unique<ShardWorkload>(seed);
    throw std::invalid_argument("unknown sim workload " + name);
}

Replay
replay(const std::string &name, uint64_t seed)
{
    recperf::obs::HwTelemetry &telem = recperf::obs::HwTelemetry::global();
    telem.setEnabled(true);
    Replay r;
    Digest full;
    std::unique_ptr<SimWorkload> sim = makeSimWorkload(name, seed);
    for (int i = 0; i < kDigestWindows; ++i) {
        r.windows.push_back(sim->window().digest);
        full.add(r.windows.back());
        addCacheCounters(full, telem.totals().cache);
    }
    telem.setEnabled(false);
    r.full = full.hex();
    return r;
}

std::string
lookupStoredDigest(const std::string &path, const std::string &name,
                   uint64_t seed)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string w, hex;
        uint64_t s = 0;
        if (fields >> w >> s >> hex && w == name && s == seed)
            return hex;
    }
    return "";
}

void
runSim(const RunConfig &cfg, Report &report)
{
    recperf::obs::HwTelemetry &telem = recperf::obs::HwTelemetry::global();

    // Each session builds a fresh simulator: set-up is construction
    // (with the simulator's own calibration runs) plus one warm-up
    // window, window 0. Session 0 runs at the run's seed, session i at a
    // seed derived from it, so a run times kSessions distinct streams of
    // windows and every session's window 0 must differ from session 0's.
    // Session 0's first kFixedWindows windows give the simulated
    // per-layer outputs. A traced run alternates windows with the
    // simulator's telemetry on (odd) and off (even): simulated results
    // must not depend on it, and the two halves give the overhead.
    std::vector<double> setups, slowdown, traced_lat;
    std::vector<Session> sessions;
    std::vector<WindowStats> first;
    std::vector<uint64_t> run_digests;
    uint64_t attempted = 0, ok = 0, failed = 0;
    bool seed_sensitive = true;
    CacheTotals cache;
    SpanLog spans;
    std::unique_ptr<SimWorkload> sim;
    const double session_s = cfg.seconds / kSessions;
    for (int si = 0; si < kSessions; ++si) {
        sim.reset();
        const Clock::time_point t0 = Clock::now();
        sim = makeSimWorkload(cfg.workload,
                              si == 0 ? cfg.seed : mixSeed(cfg.seed, si));
        WindowStats w = sim->window();
        setups.push_back(secondsBetween(t0, Clock::now()));
        std::vector<uint64_t> digests{w.digest};
        if (si == 0)
            first.push_back(std::move(w));

        Session &ses = sessions.emplace_back();
        double virt = 0.0;
        const Clock::time_point start = Clock::now();
        for (size_t n = 1; ses.elapsed < session_s || n <= kMinCalls ||
             (si == 0 && first.size() < static_cast<size_t>(kFixedWindows));
             ++n) {
            const bool traced = cfg.trace && n % 2 == 1;
            telem.setEnabled(traced);
            const size_t span = traced ? spans.open("serving.window") : 0;
            w = sim->window();
            if (traced) {
                spans.close(span);
                cache.add(telem.totals().cache, w.telemetryRuns);
                traced_lat.push_back(w.wallSeconds);
            } else {
                ses.samples.push_back(w.wallSeconds);
            }
            virt += w.virtualSeconds;
            ses.units += static_cast<double>(w.attempted);
            attempted += w.attempted;
            ok += w.ok;
            failed += w.failed;
            if (digests.size() < static_cast<size_t>(kDigestWindows))
                digests.push_back(w.digest);
            if (si == 0 && first.size() < static_cast<size_t>(kFixedWindows))
                first.push_back(std::move(w));
            ses.elapsed = secondsBetween(start, Clock::now());
        }
        slowdown.push_back(ses.elapsed / virt);
        if (si == 0)
            run_digests = digests;
        else
            seed_sensitive = seed_sensitive && digests[0] != run_digests[0];
    }
    telem.setEnabled(false);
    report.attempted = attempted;
    report.failed = failed;

    // Reproducibility: a fresh simulator at the same seed must replay
    // session 0's first windows (telemetry on, so this also shows
    // telemetry does not perturb them), and its digest with cache
    // counters must equal the stored one.
    const Replay fresh = replay(cfg.workload, cfg.seed);
    report.check(run_digests == fresh.windows,
                 "simulated outputs replay exactly at the same seed");
    const std::string stored =
        lookupStoredDigest(cfg.goldenPath, cfg.workload, cfg.seed);
    if (!stored.empty())
        report.check(fresh.full == stored, "digest equals the stored one");
    report.check(seed_sensitive,
                 "a different seed changes the simulated outputs");
    report.check(failed == 0, "no item or inference failed");
    report.check(attempted > 0 && attempted == ok + failed,
                 "attempted = ok + failed");

    const SessionSummary sum = summarize(sessions);
    report.set("requests_per_s", sum.rate);
    report.set("latency_ms_p50", sum.p50 * 1e3);
    report.set("latency_ms_tail", sum.tail * 1e3);
    report.set("setup_s", median(setups));
    report.set("peak_rss_mb", peakRssMib());
    report.set("sim_slowdown", median(slowdown));

    if (cfg.trace) {
        uint64_t batches = 0, items = 0, runs = 0, requests = 0;
        uint64_t shard_failed = 0, hedges = 0, wins = 0, retries = 0;
        std::vector<double> virt_lat;
        for (const WindowStats &w : first) {
            batches += w.batches;
            items += w.ok;
            runs += w.runs;
            requests += w.shardRequests;
            hedges += w.hedges;
            wins += w.hedgeWins;
            retries += w.retries;
            if (w.shardRequests > 0)
                shard_failed += w.failed;
            virt_lat.insert(virt_lat.end(), w.virtualLatency.begin(),
                            w.virtualLatency.end());
        }
        const bool serve = batches > 0;
        report.set("serving.batches", static_cast<double>(batches));
        report.set("serving.mean_batch",
                   ratio(static_cast<double>(items),
                         static_cast<double>(batches)));
        report.set("serving.virtual_ms_p50",
                   serve ? percentile(virt_lat, 50.0) * 1e3 : 0.0);
        report.set("serving.virtual_ms_p99",
                   serve ? percentile(virt_lat, 99.0) * 1e3 : 0.0);
        report.set("distributed.shard_requests",
                   static_cast<double>(requests));
        report.set("distributed.failed", static_cast<double>(shard_failed));
        report.set("resilience.hedges", static_cast<double>(hedges));
        report.set("resilience.hedge_win_ratio",
                   ratio(static_cast<double>(wins),
                         static_cast<double>(hedges)));
        report.set("resilience.retries", static_cast<double>(retries));
        report.set("timing.runs", static_cast<double>(runs));
        report.set("simcache.accesses_per_run",
                   ratio(static_cast<double>(cache.accesses),
                         static_cast<double>(cache.runs)));
        report.set("simcache.l1_hit_ratio",
                   ratio(static_cast<double>(cache.l1Hits),
                         static_cast<double>(cache.accesses)));
        report.set("simcache.llc_hit_ratio",
                   ratio(static_cast<double>(cache.llcHits),
                         static_cast<double>(cache.llcAccesses)));
        report.set("tracing.overhead_ms",
                   (median(traced_lat) - sum.p50) * 1e3);

        report.set("timing.run_us",
                   probeTimerRun(*sim, cfg.seed, spans) * 1e6);
        double ns_draw = 0.0, ns_access = 0.0;
        probeTraceAndCache(*sim, cfg.seed, spans, &ns_draw, &ns_access);
        report.set("trace.ns_per_draw", ns_draw);
        report.set("simcache.ns_per_access", ns_access);
        if (!cfg.spansPath.empty())
            report.check(spans.writeChromeTrace(cfg.spansPath),
                         "span file written");
        report.note("spans", static_cast<double>(spans.size()));
    }

    report.note("sessions", kSessions);
    report.note("samples", static_cast<double>(sum.samples));
    report.note("session_p50_s", jsonArray(sum.sessionP50));
    report.note("tail_pct", sum.tailPct);
    report.note("tail_min_samples_beyond",
                static_cast<double>(sum.minBeyond));
    report.note("setup_s_each", jsonArray(setups));
    report.note("session_slowdown", jsonArray(slowdown));
    report.noteString("digest", fresh.full);
    report.note("digest_stored", stored.empty() ? "false" : "true");
}

} // namespace perfbench
