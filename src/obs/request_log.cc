#include "obs/request_log.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <type_traits>

#include "core/logging.hh"
#include "core/stats.hh"
#include "obs/json.hh"
#include "obs/report.hh"

namespace recperf {
namespace obs {

namespace {

const char *const kPhaseNames[kNumRequestPhases] = {
    "queue",   "service", "straggler", "shard_straggler", "retry",
    "hedge",   "warmup",  "scrub",     "network",         "aggregate",
};

const char *const kOutcomeNames[kNumRequestOutcomes] = {
    "served",
    "shed_admission",
    "shed_admission_deadline",
    "shed_deadline_queue",
    "cancelled",
    "dropped_low_priority",
    "failed",
};

/** One optional cause tag of a record's JSON form. */
struct Tag
{
    const char *key;
    enum Kind { Count, Real, Flag } kind;
    double absent; ///< not written at this value, read back when missing
    double (*get)(const RequestRecord &);
    void (*set)(RequestRecord &, double);
};

template <auto Field>
constexpr Tag
tag(const char *key, Tag::Kind kind, double absent = 0.0)
{
    using T = std::remove_reference_t<decltype(RequestRecord{}.*Field)>;
    return {key, kind, absent,
            [](const RequestRecord &r) {
                return static_cast<double>(r.*Field);
            },
            [](RequestRecord &r, double v) {
                r.*Field = static_cast<T>(v);
            }};
}

/** The tags in the order the writer emits and the parser checks them. */
constexpr Tag kTags[] = {
    tag<&RequestRecord::brownoutLevel>("brownout_level", Tag::Count),
    tag<&RequestRecord::degraded>("degraded", Tag::Flag),
    tag<&RequestRecord::slaViolated>("sla_violated", Tag::Flag),
    tag<&RequestRecord::deadlineClamped>("deadline_clamped", Tag::Flag),
    tag<&RequestRecord::hedgeWon>("hedge_won", Tag::Flag),
    tag<&RequestRecord::retries>("retries", Tag::Count),
    tag<&RequestRecord::hedges>("hedges", Tag::Count),
    tag<&RequestRecord::hedgeWins>("hedge_wins", Tag::Count),
    tag<&RequestRecord::replica>("replica", Tag::Count, -1.0),
    tag<&RequestRecord::criticalShard>("critical_shard", Tag::Count, -1.0),
    tag<&RequestRecord::batchItems>("batch_items", Tag::Count),
    tag<&RequestRecord::breakerRejects>("breaker_rejects", Tag::Count),
    tag<&RequestRecord::admissionEstimate>("admission_estimate_s",
                                           Tag::Real),
    tag<&RequestRecord::healthEwma>("health_ewma", Tag::Real),
    tag<&RequestRecord::offloadBytes>("offload_bytes", Tag::Real),
};

bool
parsePhaseName(const std::string &name, size_t *out)
{
    for (size_t i = 0; i < kNumRequestPhases; ++i) {
        if (name == kPhaseNames[i]) {
            *out = i;
            return true;
        }
    }
    return false;
}

std::vector<RequestRecord>
servedOnly(const std::vector<RequestRecord> &records)
{
    std::vector<RequestRecord> served;
    for (const RequestRecord &r : records)
        if (r.outcome == RequestOutcome::Served)
            served.push_back(r);
    return served;
}

/** Slowest-k served records within the trailing window. */
std::vector<RequestRecord>
pickSlowest(const std::vector<RequestRecord> &records, int k,
            double windowSeconds)
{
    std::vector<RequestRecord> served = servedOnly(records);
    if (windowSeconds > 0.0 && !served.empty()) {
        double last = 0.0;
        for (const RequestRecord &r : served)
            last = std::max(last, r.finish);
        double cutoff = last - windowSeconds;
        served.erase(std::remove_if(served.begin(), served.end(),
                                    [cutoff](const RequestRecord &r) {
                                        return r.finish < cutoff;
                                    }),
                     served.end());
    }
    std::sort(served.begin(), served.end(),
              [](const RequestRecord &a, const RequestRecord &b) {
                  if (a.latency != b.latency)
                      return a.latency > b.latency;
                  return a.id < b.id;
              });
    if (k >= 0 && served.size() > static_cast<size_t>(k))
        served.resize(static_cast<size_t>(k));
    return served;
}

/** Up to @p perDecile served records per latency decile, latency asc. */
std::vector<RequestRecord>
pickDeciles(const std::vector<RequestRecord> &records, int perDecile)
{
    std::vector<RequestRecord> served = servedOnly(records);
    std::sort(served.begin(), served.end(),
              [](const RequestRecord &a, const RequestRecord &b) {
                  if (a.latency != b.latency)
                      return a.latency < b.latency;
                  return a.id < b.id;
              });
    std::vector<RequestRecord> picked;
    size_t n = served.size();
    if (n == 0 || perDecile <= 0)
        return picked;
    for (size_t d = 0; d < 10; ++d) {
        size_t lo = d * n / 10;
        size_t hi = (d + 1) * n / 10;
        for (size_t i = lo; i < hi &&
                            i < lo + static_cast<size_t>(perDecile);
             ++i)
            picked.push_back(served[i]);
    }
    return picked;
}

} // namespace

const char *
requestPhaseName(RequestPhase phase)
{
    size_t i = static_cast<size_t>(phase);
    return i < kNumRequestPhases ? kPhaseNames[i] : "unknown";
}

const char *
requestOutcomeName(RequestOutcome outcome)
{
    size_t i = static_cast<size_t>(outcome);
    return i < kNumRequestOutcomes ? kOutcomeNames[i] : "unknown";
}

bool
parseRequestOutcome(const std::string &name, RequestOutcome *out)
{
    for (size_t i = 0; i < kNumRequestOutcomes; ++i) {
        if (name == kOutcomeNames[i]) {
            *out = static_cast<RequestOutcome>(i);
            return true;
        }
    }
    return false;
}

TailAttribution
attributeTail(const std::vector<RequestRecord> &records)
{
    TailAttribution a;
    std::vector<double> latencies;
    std::vector<const RequestRecord *> served;
    for (const RequestRecord &r : records) {
        if (r.outcome != RequestOutcome::Served)
            continue;
        served.push_back(&r);
        latencies.push_back(r.latency);
    }
    a.served = served.size();
    if (served.empty()) {
        a.blame[static_cast<size_t>(RequestPhase::Service)] = 1.0;
        return a;
    }
    a.p50 = percentile(latencies, 50.0);
    a.p99 = percentile(latencies, 99.0);
    a.gap = a.p99 - a.p50;

    // Each tail record (slower than the median) votes its phase
    // vector, weighted by the share of its latency that is excess, so
    // a request 10x the median counts for ~9x more than one at 1.1x.
    for (const RequestRecord *r : served) {
        if (r->latency <= a.p50 || r->latency <= 0.0)
            continue;
        double weight = (r->latency - a.p50) / r->latency;
        for (size_t i = 0; i < kNumRequestPhases; ++i)
            a.mass[i] += r->phase[i] * weight;
    }
    for (size_t i = 0; i < kNumRequestPhases; ++i)
        a.excessMass += a.mass[i];
    if (a.excessMass > 0.0) {
        for (size_t i = 0; i < kNumRequestPhases; ++i)
            a.blame[i] = a.mass[i] / a.excessMass;
    } else {
        a.blame[static_cast<size_t>(RequestPhase::Service)] = 1.0;
    }
    return a;
}

void
RequestLogger::configure(const RequestLogOptions &options)
{
    std::lock_guard<std::mutex> lock(mu_);
    options_ = options;
    if (options_.capacity == 0)
        options_.capacity = 1;
    if (options_.slowestK < 1)
        options_.slowestK = 1;
    if (options_.perDecile < 0)
        options_.perDecile = 0;
    if (!(options_.windowSeconds >= 0.0))
        options_.windowSeconds = 0.0;
    records_.clear();
    recorded_ = dropped_ = 0;
}

void
RequestLogger::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    records_.clear();
    recorded_ = dropped_ = 0;
}

void
RequestLogger::record(const RequestRecord &rec)
{
    std::lock_guard<std::mutex> lock(mu_);
    ++recorded_;
    if (records_.size() >= options_.capacity) {
        ++dropped_;
        return;
    }
    records_.push_back(rec);
}

std::vector<RequestRecord>
RequestLogger::records() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return records_;
}

size_t
RequestLogger::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return records_.size();
}

uint64_t
RequestLogger::recorded() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return recorded_;
}

uint64_t
RequestLogger::dropped() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_;
}

std::vector<RequestRecord>
RequestLogger::slowestExemplars() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return pickSlowest(records_, options_.slowestK,
                       options_.windowSeconds);
}

std::vector<RequestRecord>
RequestLogger::decileExemplars() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return pickDeciles(records_, options_.perDecile);
}

TailAttribution
RequestLogger::attribution() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return attributeTail(records_);
}

std::string
requestRecordJson(const RequestRecord &rec)
{
    std::string out = "{\"id\": " + std::to_string(rec.id);
    out += ", \"outcome\": \"";
    out += requestOutcomeName(rec.outcome);
    out += "\", \"arrival\": " + jsonNumber(rec.arrival);
    out += ", \"start\": " + jsonNumber(rec.start);
    out += ", \"finish\": " + jsonNumber(rec.finish);
    out += ", \"latency_s\": " + jsonNumber(rec.latency);
    out += ", \"phases\": {";
    bool first = true;
    for (size_t i = 0; i < kNumRequestPhases; ++i) {
        if (rec.phase[i] == 0.0)
            continue;
        if (!first)
            out += ", ";
        first = false;
        out += "\"";
        out += kPhaseNames[i];
        out += "\": " + jsonNumber(rec.phase[i]);
    }
    out += "}";
    for (const Tag &t : kTags) {
        double v = t.get(rec);
        if (v == t.absent)
            continue;
        out += std::string(", \"") + t.key + "\": ";
        out += t.kind == Tag::Flag ? "true"
            : t.kind == Tag::Count ? std::to_string(static_cast<int64_t>(v))
                                   : jsonNumber(v);
    }
    out += "}";
    return out;
}

std::string
RequestLogger::toJsonl() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::string out;
    for (const RequestRecord &r : records_) {
        out += requestRecordJson(r);
        out += "\n";
    }
    return out;
}

bool
RequestLogger::writeFile(const std::string &path) const
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr,
                     "request_log: cannot open %s for writing\n",
                     path.c_str());
        return false;
    }
    out << toJsonl();
    return static_cast<bool>(out);
}

std::string
RequestLogger::exemplarsJsonl() const
{
    std::vector<RequestRecord> picked = slowestExemplars();
    std::vector<RequestRecord> deciles = decileExemplars();
    picked.insert(picked.end(), deciles.begin(), deciles.end());
    std::sort(picked.begin(), picked.end(),
              [](const RequestRecord &a, const RequestRecord &b) {
                  return a.id < b.id;
              });
    picked.erase(std::unique(picked.begin(), picked.end(),
                             [](const RequestRecord &a,
                                const RequestRecord &b) {
                                 return a.id == b.id;
                             }),
                 picked.end());
    std::string out;
    for (const RequestRecord &r : picked) {
        out += requestRecordJson(r);
        out += "\n";
    }
    return out;
}

bool
RequestLogger::writeExemplars(const std::string &path) const
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr,
                     "request_log: cannot open %s for writing\n",
                     path.c_str());
        return false;
    }
    out << exemplarsJsonl();
    return static_cast<bool>(out);
}

void
RequestLogger::exportTo(MetricsRegistry &registry) const
{
    std::vector<RequestRecord> snapshot = records();
    uint64_t recorded_total, dropped_total;
    {
        std::lock_guard<std::mutex> lock(mu_);
        recorded_total = recorded_;
        dropped_total = dropped_;
    }
    registry.counter("tail.requests.recorded").add(recorded_total);
    if (dropped_total != 0)
        registry.counter("tail.requests.dropped").add(dropped_total);

    TailAttribution a = attributeTail(snapshot);
    registry.gauge("tail.p50_seconds").set(a.p50);
    registry.gauge("tail.p99_seconds").set(a.p99);
    registry.gauge("tail.gap_seconds").set(a.gap);
    for (size_t i = 0; i < kNumRequestPhases; ++i) {
        if (a.blame[i] <= 0.0)
            continue;
        registry.gauge(std::string("tail.blame.") + kPhaseNames[i])
            .set(a.blame[i]);
    }

    std::vector<RequestRecord> slow = slowestExemplars();
    size_t count = std::min<size_t>(slow.size(), 4);
    for (size_t i = 0; i < count; ++i)
        registry
            .gauge(strprintf("tail.exemplar.slowest%zu_seconds", i))
            .set(slow[i].latency);

    std::vector<double> latencies;
    for (const RequestRecord &r : snapshot)
        if (r.outcome == RequestOutcome::Served)
            latencies.push_back(r.latency);
    if (!latencies.empty()) {
        for (int d = 1; d <= 9; ++d)
            registry.gauge(strprintf("tail.decile.p%d_seconds", d * 10))
                .set(percentile(latencies,
                                static_cast<double>(d) * 10.0));
    }
}

namespace {

bool
lineError(std::string *error, size_t lineno, const std::string &msg)
{
    if (error)
        *error = strprintf("request log line %zu: %s",
                           lineno, msg.c_str());
    return false;
}

bool
finiteField(const JsonValue &obj, const char *key, bool required,
            double fallback, double *out, std::string *msg)
{
    const JsonValue *v = obj.find(key);
    if (v == nullptr) {
        if (required) {
            *msg = strprintf("missing required field '%s'", key);
            return false;
        }
        *out = fallback;
        return true;
    }
    if (v->kind != JsonValue::Kind::Number ||
        !std::isfinite(v->number)) {
        *msg = strprintf("field '%s' is not a finite number", key);
        return false;
    }
    *out = v->number;
    return true;
}

} // namespace

bool
parseRequestLog(const std::string &jsonl,
                std::vector<RequestRecord> *out, std::string *error)
{
    out->clear();
    std::vector<std::string> lines;
    size_t pos = 0;
    while (pos < jsonl.size()) {
        size_t nl = jsonl.find('\n', pos);
        if (nl == std::string::npos) {
            lines.push_back(jsonl.substr(pos));
            break;
        }
        lines.push_back(jsonl.substr(pos, nl - pos));
        pos = nl + 1;
    }
    if (lines.empty()) {
        if (error)
            *error = "request log is empty";
        return false;
    }
    for (size_t n = 0; n < lines.size(); ++n) {
        const std::string &line = lines[n];
        size_t lineno = n + 1;
        if (line.empty())
            return lineError(error, lineno, "empty line");
        JsonValue value;
        std::string parse_error;
        if (!parseJson(line, value, parse_error))
            return lineError(error, lineno, parse_error);
        if (value.kind != JsonValue::Kind::Object)
            return lineError(error, lineno, "not a JSON object");

        RequestRecord rec;
        std::string msg;
        double d;
        if (!finiteField(value, "id", true, 0.0, &d, &msg))
            return lineError(error, lineno, msg);
        if (d < 0.0 || d != std::floor(d))
            return lineError(error, lineno,
                             "'id' is not a non-negative integer");
        rec.id = static_cast<uint64_t>(d);

        const JsonValue *outcome = value.find("outcome");
        if (outcome == nullptr ||
            outcome->kind != JsonValue::Kind::String)
            return lineError(error, lineno,
                             "missing required field 'outcome'");
        if (!parseRequestOutcome(outcome->str, &rec.outcome))
            return lineError(
                error, lineno,
                strprintf("unknown outcome '%s'",
                          outcome->str.c_str()));

        struct
        {
            const char *key;
            double *dst;
        } times[] = {
            {"arrival", &rec.arrival},
            {"start", &rec.start},
            {"finish", &rec.finish},
            {"latency_s", &rec.latency},
        };
        for (const auto &t : times) {
            if (!finiteField(value, t.key, true, 0.0, t.dst, &msg))
                return lineError(error, lineno, msg);
            if (*t.dst < 0.0)
                return lineError(
                    error, lineno,
                    strprintf("field '%s' is negative", t.key));
        }

        const JsonValue *phases = value.find("phases");
        if (phases == nullptr ||
            phases->kind != JsonValue::Kind::Object)
            return lineError(error, lineno,
                             "missing required 'phases' object");
        for (const auto &field : phases->fields) {
            size_t idx;
            if (!parsePhaseName(field.first, &idx))
                return lineError(
                    error, lineno,
                    strprintf("unknown phase '%s'",
                              field.first.c_str()));
            if (field.second.kind != JsonValue::Kind::Number ||
                !std::isfinite(field.second.number) ||
                field.second.number < 0.0)
                return lineError(
                    error, lineno,
                    strprintf("phase '%s' is not a non-negative "
                              "number",
                              field.first.c_str()));
            rec.phase[idx] = field.second.number;
        }

        for (const Tag &t : kTags) {
            if (t.kind == Tag::Flag) {
                const JsonValue *v = value.find(t.key);
                if (v != nullptr && v->kind == JsonValue::Kind::Bool)
                    t.set(rec, v->boolean ? 1.0 : 0.0);
            } else if (finiteField(value, t.key, false, t.absent, &d,
                                   &msg)) {
                t.set(rec, d);
            } else {
                return lineError(error, lineno, msg);
            }
        }

        out->push_back(rec);
    }
    return true;
}

namespace {

/** Proportional phase bar, e.g. "[qqqqqqsssSS]". */
std::string
phaseBar(const RequestRecord &rec, int width)
{
    static const char kPhaseChars[kNumRequestPhases + 1] = "qsjSrhwcna";
    std::string bar;
    if (rec.latency <= 0.0)
        return bar;
    for (size_t i = 0; i < kNumRequestPhases; ++i) {
        int cells = static_cast<int>(
            std::lround(rec.phase[i] / rec.latency * width));
        bar.append(static_cast<size_t>(std::max(0, cells)),
                   kPhaseChars[i]);
    }
    if (static_cast<int>(bar.size()) > width)
        bar.resize(static_cast<size_t>(width));
    return "[" + bar + "]";
}

std::string
describePhases(const RequestRecord &rec)
{
    std::string out;
    for (size_t i = 0; i < kNumRequestPhases; ++i) {
        if (rec.phase[i] <= 0.0)
            continue;
        if (!out.empty())
            out += " | ";
        double pct = rec.latency > 0.0
                         ? rec.phase[i] / rec.latency * 100.0
                         : 0.0;
        out += strprintf("%s %s (%.0f%%)", kPhaseNames[i],
                         humanSeconds(rec.phase[i]).c_str(), pct);
    }
    return out;
}

} // namespace

std::string
renderExplain(const ExplainInputs &inputs, std::string &error)
{
    std::vector<RequestRecord> records;
    if (!parseRequestLog(inputs.requestLogJsonl, &records, &error))
        return "";

    uint64_t outcomes[kNumRequestOutcomes] = {};
    for (const RequestRecord &r : records)
        ++outcomes[static_cast<size_t>(r.outcome)];

    std::string out = "== Request log ==\n";
    out += strprintf("records: %zu", records.size());
    for (size_t i = 0; i < kNumRequestOutcomes; ++i)
        if (outcomes[i] != 0)
            out += strprintf("  %s: %llu", kOutcomeNames[i],
                             static_cast<unsigned long long>(
                                 outcomes[i]));
    out += "\n";

    TailAttribution a = attributeTail(records);
    out += "\n== Tail attribution (p99 - p50 blame) ==\n";
    out += strprintf("served: %llu  p50: %s  p99: %s  gap: %s\n",
                     static_cast<unsigned long long>(a.served),
                     humanSeconds(a.p50).c_str(),
                     humanSeconds(a.p99).c_str(),
                     humanSeconds(a.gap).c_str());
    std::vector<size_t> order;
    for (size_t i = 0; i < kNumRequestPhases; ++i)
        if (a.blame[i] > 0.0)
            order.push_back(i);
    std::sort(order.begin(), order.end(),
              [&a](size_t x, size_t y) {
                  if (a.blame[x] != a.blame[y])
                      return a.blame[x] > a.blame[y];
                  return x < y;
              });
    double blame_sum = 0.0;
    for (size_t i : order) {
        blame_sum += a.blame[i];
        out += strprintf("  %-16s %6.2f%%  (tail mass %s)\n",
                         kPhaseNames[i], a.blame[i] * 100.0,
                         humanSeconds(a.mass[i]).c_str());
    }
    out += strprintf("  blame fractions sum to %.6f\n", blame_sum);

    std::vector<RequestRecord> slow =
        pickSlowest(records, inputs.top, 0.0);
    if (!slow.empty()) {
        out += "\n== Slowest exemplars ==\n";
        out += "  legend: q=queue s=service j=straggler "
               "S=shard_straggler r=retry h=hedge w=warmup c=scrub "
               "n=network a=aggregate\n";
        for (const RequestRecord &r : slow) {
            out += strprintf(
                "  #%llu  %s  %s %s\n",
                static_cast<unsigned long long>(r.id),
                humanSeconds(r.latency).c_str(),
                requestOutcomeName(r.outcome),
                phaseBar(r, 40).c_str());
            out += "      " + describePhases(r) + "\n";
        }
    }

    std::vector<RequestRecord> served = servedOnly(records);
    if (!served.empty()) {
        std::sort(served.begin(), served.end(),
                  [](const RequestRecord &x, const RequestRecord &y) {
                      if (x.latency != y.latency)
                          return x.latency < y.latency;
                      return x.id < y.id;
                  });
        out += "\n== Latency deciles (served) ==\n";
        out += "  decile   upper      dominant cause\n";
        size_t n = served.size();
        for (size_t d = 0; d < 10; ++d) {
            size_t lo = d * n / 10;
            size_t hi = (d + 1) * n / 10;
            if (lo >= hi)
                continue;
            double phases[kNumRequestPhases] = {};
            for (size_t i = lo; i < hi; ++i)
                for (size_t p = 0; p < kNumRequestPhases; ++p)
                    phases[p] += served[i].phase[p];
            size_t top = 0;
            double total = 0.0;
            for (size_t p = 0; p < kNumRequestPhases; ++p) {
                total += phases[p];
                if (phases[p] > phases[top])
                    top = p;
            }
            double share = total > 0.0 ? phases[top] / total * 100.0
                                       : 0.0;
            out += strprintf("  p%-6zu  %-9s  %s %.0f%%\n",
                             (d + 1) * 10,
                             humanSeconds(served[hi - 1].latency)
                                 .c_str(),
                             kPhaseNames[top], share);
        }
    }

    if (!inputs.metricsJson.empty()) {
        JsonValue metrics;
        std::string parse_error;
        if (!parseJson(inputs.metricsJson, metrics, parse_error)) {
            error = "metrics: " + parse_error;
            return "";
        }
        const JsonValue *gauges = metrics.find("gauges");
        if (gauges == nullptr ||
            gauges->kind != JsonValue::Kind::Object) {
            error = "metrics: missing 'gauges' object";
            return "";
        }
        const std::string prefix = "tail.blame.";
        double exported_sum = 0.0;
        size_t matched = 0;
        for (const auto &field : gauges->fields) {
            if (field.first.compare(0, prefix.size(), prefix) != 0)
                continue;
            std::string cause = field.first.substr(prefix.size());
            size_t idx;
            if (!parsePhaseName(cause, &idx)) {
                error = strprintf("metrics: unknown blame cause '%s'",
                                  cause.c_str());
                return "";
            }
            double want = field.second.asNumber();
            exported_sum += want;
            ++matched;
            if (std::fabs(want - a.blame[idx]) > 1e-6) {
                error = strprintf(
                    "metrics: %s = %.9g but the log reconstructs "
                    "%.9g",
                    field.first.c_str(), want, a.blame[idx]);
                return "";
            }
        }
        if (matched == 0) {
            error = "metrics: no tail.blame.* gauges to cross-check "
                    "(was the run logged?)";
            return "";
        }
        if (std::fabs(exported_sum - 1.0) > 1e-6) {
            error = strprintf("metrics: exported blame fractions sum "
                              "to %.9g, want 1",
                              exported_sum);
            return "";
        }
        out += strprintf("\n== Metrics cross-check ==\n"
                         "  %zu tail.blame.* gauge(s) match the log "
                         "within 1e-6; fractions sum to %.6f\n",
                         matched, exported_sum);
    }
    return out;
}

std::string
validateRequestLogArgs(int slowestK, double windowSeconds,
                       bool haveSink, bool kSet, bool windowSet)
{
    if (slowestK < 1)
        return strprintf("--request-log-k must be >= 1 (got %d)",
                         slowestK);
    if (!(windowSeconds >= 0.0) || !std::isfinite(windowSeconds))
        return "--request-log-window-ms must be a finite value >= 0";
    if (!haveSink && kSet)
        return "--request-log-k has no effect without "
               "--request-log-out or --exemplars-out";
    if (!haveSink && windowSet)
        return "--request-log-window-ms has no effect without "
               "--request-log-out or --exemplars-out";
    return "";
}

} // namespace obs
} // namespace recperf
