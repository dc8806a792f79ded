/**
 * @file
 * One serving run's measured window and the one way its requests end,
 * shared by Server::runOpenLoop and ShardedInference::run: start()
 * names the lanes and resets HwTelemetry, the time series and the
 * request log; tick() pairs telemetry counters with a series sample;
 * end() emits an outcome's trace instant, records the request, and
 * feeds the series and the brownout sensor, as one outcome table says.
 */

#ifndef RECPERF_SERVING_REQUEST_WINDOW_HH
#define RECPERF_SERVING_REQUEST_WINDOW_HH

#include <string>

#include "obs/hw_counters.hh"
#include "obs/request_log.hh"
#include "obs/timeseries.hh"
#include "obs/trace.hh"

namespace recperf {

/** How one request left the window (virtual seconds). */
struct RequestEnd
{
    obs::RequestOutcome outcome = obs::RequestOutcome::Served;
    uint64_t id = 0;
    double arrival = 0.0;
    double start = 0.0;   ///< dispatch (= arrival on the shard path)
    double finish = 0.0;  ///< when it left; also its observation time
    double latency = 0.0;
    bool slaViolated = false; ///< read for Served only
    uint32_t lane = 0;    ///< lane and time of the outcome's instant
    double markAt = 0.0;  ///< (a failed inference: before its network hop)
};

class RequestWindow
{
  public:
    /** Sinks are not owned; null means off. The brownout @p sensor is
     *  only observed. */
    RequestWindow(obs::RequestLogger *log, obs::TimeSeriesSampler *series,
                  obs::TimeSeriesSampler *sensor = nullptr)
        : log_(log), series_(series), sensor_(sensor)
    {
    }

    /** Lane 0 is @p hub; lane 1 + i, for i < @p lanes, is `<prefix><i>`. */
    void start(const char *hub, const char *prefix, uint32_t lanes)
    {
        if (tracer_.enabled()) {
            tracer_.nameLane(0, hub);
            for (uint32_t l = 0; l < lanes; ++l)
                tracer_.nameLane(1 + l, prefix + std::to_string(l));
        }
        if (telem_.enabled())
            telem_.reset();
        if (series_)
            series_->reset();
        if (log_)
            log_->reset();
    }

    /** Telemetry counters and a series sample at @p t (never
     *  decreasing). */
    void tick(double t)
    {
        if (telem_.enabled())
            telem_.emitCounters(tracer_, t, 0);
        if (series_)
            series_->tick(t);
    }

    /** True when a log records ends; gather record-only state then. */
    bool recording() const { return log_ != nullptr; }

    /** Requests that ended with @p outcome so far. */
    uint64_t ended(obs::RequestOutcome outcome) const
    {
        return ended_[static_cast<size_t>(outcome)];
    }

    /** End one request: its instant, its record, its observation.
     *  @p fill(rec) adds the loop's tags and phases to the record; it
     *  runs only when a log is attached. */
    template <class Fill>
    void end(const RequestEnd &e, Fill &&fill)
    {
        const Row &row = kOutcomes[static_cast<size_t>(e.outcome)];
        ++ended_[static_cast<size_t>(e.outcome)];
        if (row.cat && tracer_.enabled())
            tracer_.instant(row.cat, row.name, e.markAt, e.lane);
        bool violated = e.outcome == obs::RequestOutcome::Served
            ? e.slaViolated : row.observed;
        if (log_) {
            obs::RequestRecord rec;
            rec.id = e.id;
            rec.arrival = e.arrival;
            rec.start = e.start;
            rec.finish = e.finish;
            rec.latency = e.latency;
            rec.outcome = e.outcome;
            rec.slaViolated = violated;
            fill(rec);
            log_->record(rec);
        }
        for (obs::TimeSeriesSampler *s : {series_, sensor_}) {
            if (s && row.observed)
                s->observeItem(e.finish, e.latency, violated);
        }
    }

  private:
    /**
     * Per outcome: its trace instant (none for served), and whether
     * the series and the brownout sensor observe it. Every observed
     * outcome but served is an SLA violation; the unobserved
     * wait-budget shed and low-priority drop are not.
     */
    struct Row
    {
        const char *cat;
        const char *name;
        bool observed;
    };
    static constexpr Row kOutcomes[obs::kNumRequestOutcomes] = {
        {nullptr, nullptr, true},              // served
        {"serve", "shed", false},              // shed_admission
        {"deadline", "shed_admission", true},  // shed_admission_deadline
        {"deadline", "expired_queue", true},   // shed_deadline_queue
        {"deadline", "cancelled", true},       // cancelled
        {"serve", "drop_low_priority", false}, // dropped_low_priority
        {"shard", "inference_failed", true},   // failed
    };

    obs::Tracer &tracer_ = obs::Tracer::global();
    obs::HwTelemetry &telem_ = obs::HwTelemetry::global();
    obs::RequestLogger *log_;
    obs::TimeSeriesSampler *series_;
    obs::TimeSeriesSampler *sensor_;
    uint64_t ended_[obs::kNumRequestOutcomes] = {};
};

} // namespace recperf

#endif // RECPERF_SERVING_REQUEST_WINDOW_HH
