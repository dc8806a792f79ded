#include "obs/report.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <set>

#include "core/logging.hh"
#include "obs/metrics.hh"

namespace recperf {
namespace obs {

// --------------------------------------------------------------- parser

namespace {

/**
 * Deepest object/array nesting the parser accepts. Our writers nest a
 * handful of levels; the cap turns adversarial depth into a parse
 * error instead of a stack overflow in the recursive descent.
 */
constexpr int kMaxJsonDepth = 256;

class Parser
{
  public:
    Parser(const std::string &text, std::string &error)
        : text_(text), error_(error)
    {
    }

    bool parse(JsonValue &out)
    {
        skipWs();
        if (!value(out))
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing characters");
        return true;
    }

  private:
    bool fail(const std::string &what)
    {
        error_ = strprintf("JSON parse error at byte %zu: %s", pos_,
                           what.c_str());
        return false;
    }

    void skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool literal(const char *word, JsonValue &out, JsonValue::Kind kind,
                 bool boolean)
    {
        size_t len = std::string(word).size();
        if (text_.compare(pos_, len, word) != 0)
            return fail("invalid literal");
        pos_ += len;
        out.kind = kind;
        out.boolean = boolean;
        return true;
    }

    bool string(std::string &out)
    {
        if (pos_ >= text_.size() || text_[pos_] != '"')
            return fail("expected string");
        ++pos_;
        out.clear();
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                return fail("unterminated escape");
            char esc = text_[pos_++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 't': out += '\t'; break;
              case 'r': out += '\r'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    return fail("truncated \\u escape");
                unsigned code = static_cast<unsigned>(
                    std::strtoul(text_.substr(pos_, 4).c_str(), nullptr,
                                 16));
                pos_ += 4;
                out += code < 0x80 ? static_cast<char>(code) : '?';
                break;
              }
              default:
                return fail("unknown escape");
            }
        }
        if (pos_ >= text_.size())
            return fail("unterminated string");
        ++pos_; // closing quote
        return true;
    }

    bool number(JsonValue &out)
    {
        size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            return fail("expected number");
        // The whole token must be one number, and a finite one: an
        // overflowing exponent (1e999999) is malformed input, not inf.
        const std::string token = text_.substr(start, pos_ - start);
        char *end = nullptr;
        out.kind = JsonValue::Kind::Number;
        out.number = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size())
            return fail("malformed number '" + token + "'");
        if (!std::isfinite(out.number))
            return fail("number out of range '" + token + "'");
        return true;
    }

    bool value(JsonValue &out)
    {
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        char c = text_[pos_];
        switch (c) {
          case '{':
          case '[': {
            if (depth_ == kMaxJsonDepth)
                return fail(strprintf("nesting deeper than %d levels",
                                      kMaxJsonDepth));
            ++depth_;
            bool ok = c == '{' ? object(out) : array(out);
            --depth_;
            return ok;
          }
          case '"':
            out.kind = JsonValue::Kind::String;
            return string(out.str);
          case 't':
            return literal("true", out, JsonValue::Kind::Bool, true);
          case 'f':
            return literal("false", out, JsonValue::Kind::Bool, false);
          case 'n':
            return literal("null", out, JsonValue::Kind::Null, false);
          default:
            return number(out);
        }
    }

    bool object(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Object;
        ++pos_; // '{'
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            std::string key;
            if (!string(key))
                return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return fail("expected ':'");
            ++pos_;
            skipWs();
            JsonValue member;
            if (!value(member))
                return false;
            out.fields.emplace_back(std::move(key), std::move(member));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool array(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Array;
        ++pos_; // '['
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            JsonValue item;
            if (!value(item))
                return false;
            out.items.push_back(std::move(item));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    const std::string &text_;
    std::string &error_;
    size_t pos_ = 0;
    int depth_ = 0; ///< objects/arrays open around the current value
};

} // namespace

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : fields) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

bool
parseJson(const std::string &text, JsonValue &out, std::string &error)
{
    return Parser(text, error).parse(out);
}

// --------------------------------------------------------------- report

namespace {

double
gaugeOf(const JsonValue &metrics, const std::string &name)
{
    const JsonValue *gauges = metrics.find("gauges");
    if (!gauges)
        return 0.0;
    const JsonValue *g = gauges->find(name);
    return g ? g->asNumber() : 0.0;
}

double
counterOf(const JsonValue &metrics, const std::string &name)
{
    const JsonValue *counters = metrics.find("counters");
    if (!counters)
        return 0.0;
    const JsonValue *c = counters->find(name);
    return c ? c->asNumber() : 0.0;
}

/** Operator kinds present in the metrics, in registration order. */
std::vector<std::string>
opKinds(const JsonValue &metrics)
{
    std::vector<std::string> kinds;
    const JsonValue *gauges = metrics.find("gauges");
    if (!gauges)
        return kinds;
    const std::string prefix = "hw.op.";
    const std::string suffix = ".seconds";
    for (const auto &[name, v] : gauges->fields) {
        if (name.size() > prefix.size() + suffix.size() &&
            name.compare(0, prefix.size(), prefix) == 0 &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
            kinds.push_back(name.substr(
                prefix.size(),
                name.size() - prefix.size() - suffix.size()));
        }
    }
    return kinds;
}

std::string
latencySection(const JsonValue &metrics)
{
    const JsonValue *hists = metrics.find("histograms");
    if (!hists || hists->fields.empty())
        return "";
    std::string out = "Latency percentiles\n";
    size_t width = 8;
    for (const auto &[name, h] : hists->fields)
        width = std::max(width, name.size());
    auto w = static_cast<int>(width);
    auto cell = [](const JsonValue &h, const char *key) {
        const JsonValue *v = h.find(key);
        return humanSeconds(v ? v->asNumber() : 0.0);
    };
    for (const auto &[name, h] : hists->fields) {
        const JsonValue *count = h.find("count");
        out += strprintf(
            "  %-*s  count %-8.0f mean %-10s p50 %-10s p95 %-10s "
            "p99 %-10s p99.9 %-10s max %s\n",
            w, name.c_str(), count ? count->asNumber() : 0.0,
            cell(h, "mean_s").c_str(), cell(h, "p50_s").c_str(),
            cell(h, "p95_s").c_str(), cell(h, "p99_s").c_str(),
            cell(h, "p999_s").c_str(), cell(h, "max_s").c_str());
    }
    return out + "\n";
}

std::string
operatorSection(const JsonValue &metrics)
{
    std::vector<std::string> kinds = opKinds(metrics);
    if (kinds.empty())
        return "";
    std::string out =
        "Operator breakdown (share of modeled inference time, Fig 7)\n";
    out += strprintf("  %-12s %12s %10s %12s %14s\n", "kind",
                     "seconds", "fraction", "GFLOP/s", "FLOPs/byte");
    for (const std::string &kind : kinds) {
        std::string p = "hw.op." + kind + ".";
        out += strprintf("  %-12s %12.6g %9.1f%% %12.4g %14.4g\n",
                         kind.c_str(), gaugeOf(metrics, p + "seconds"),
                         gaugeOf(metrics, p + "fraction") * 100.0,
                         gaugeOf(metrics, p + "gflops"),
                         gaugeOf(metrics, p + "intensity"));
    }
    return out + "\n";
}

std::string
cacheSection(const JsonValue &metrics)
{
    static const char *kLevels[] = {"l1", "l2", "l3"};
    double total_accesses = 0.0;
    for (const char *lvl : kLevels)
        total_accesses +=
            counterOf(metrics, std::string("simcache.") + lvl +
                                   ".accesses");
    if (total_accesses <= 0.0)
        return "";
    std::string out = "Cache hierarchy (simcache ground truth, Fig 5)\n";
    out += strprintf("  %-6s %14s %14s %8s %10s %10s\n", "level",
                     "accesses", "misses", "hit%", "MPKI", "back-inv");
    for (const char *lvl : kLevels) {
        std::string p = std::string("simcache.") + lvl + ".";
        double accesses = counterOf(metrics, p + "accesses");
        double hits = counterOf(metrics, p + "hits");
        double misses = counterOf(metrics, p + "misses");
        double hit_pct = accesses > 0.0 ? hits / accesses * 100.0 : 0.0;
        out += strprintf(
            "  %-6s %14.0f %14.0f %7.1f%% %10.3f %10.0f\n", lvl,
            accesses, misses, hit_pct, gaugeOf(metrics, p + "mpki"),
            counterOf(metrics, p + "back_invalidations"));
    }
    out += strprintf("  modeled LLC MPKI (DRAM lines / kinst): %.3f\n",
                     gaugeOf(metrics, "hw.llc_mpki"));
    return out + "\n";
}

std::string
rooflineSection(const JsonValue &metrics)
{
    double peak = gaugeOf(metrics, "hw.machine.peak_gflops");
    double stream = gaugeOf(metrics, "hw.machine.stream_gbps");
    if (peak <= 0.0)
        return "";
    double ridge = gaugeOf(metrics, "hw.machine.ridge_flops_per_byte");
    std::string out = strprintf(
        "Roofline (Fig 2): peak %.1f GFLOP/s, stream %.1f GB/s, "
        "gather %.2f GB/s, ridge %.2f FLOPs/byte\n",
        peak, stream, gaugeOf(metrics, "hw.machine.gather_gbps"),
        ridge);
    out += strprintf("  %-12s %14s %14s %12s %8s  %s\n", "kind",
                     "FLOPs/byte", "achieved GF/s", "roof GF/s",
                     "%roof", "bound");
    for (const std::string &kind : opKinds(metrics)) {
        std::string p = "hw.op." + kind + ".";
        double intensity = gaugeOf(metrics, p + "intensity");
        double achieved = gaugeOf(metrics, p + "gflops");
        double roof = stream > 0.0
                          ? std::min(peak, intensity * stream)
                          : peak;
        const char *bound =
            intensity < ridge ? "memory" : "compute";
        out += strprintf("  %-12s %14.4g %14.4g %12.4g %7.1f%%  %s\n",
                         kind.c_str(), intensity, achieved, roof,
                         roof > 0.0 ? achieved / roof * 100.0 : 0.0,
                         bound);
    }
    out += strprintf(
        "  overall: intensity %.4g FLOPs/byte, %.4g GFLOP/s, "
        "DRAM bandwidth utilization %.1f%%\n",
        gaugeOf(metrics, "hw.arithmetic_intensity"),
        gaugeOf(metrics, "hw.achieved_gflops"),
        gaugeOf(metrics, "hw.dram_bandwidth_utilization") * 100.0);
    // Near-memory offload: these ops' gather bytes never cross the host
    // memory bus, so they sit outside the DRAM roof plotted above.
    if (gaugeOf(metrics, "hw.offload_seconds") > 0.0) {
        for (const std::string &kind : opKinds(metrics)) {
            std::string p = "hw.op." + kind + ".";
            double off = gaugeOf(metrics, p + "offload_seconds");
            if (off <= 0.0)
                continue;
            out += strprintf(
                "  %-12s offloaded: %.4g s on-engine, %.4g MB link "
                "traffic (off the host DRAM roof)\n",
                kind.c_str(), off,
                counterOf(metrics, p + "transfer_bytes") / 1e6);
        }
        out += strprintf(
            "  offload total: %.4g s on-engine, %.4g MB across the "
            "host link\n",
            gaugeOf(metrics, "hw.offload_seconds"),
            counterOf(metrics, "hw.transfer_bytes") / 1e6);
    }
    return out + "\n";
}

std::string
sloSection(const JsonValue &metrics, bool have_metrics,
           const std::vector<JsonValue> &series)
{
    double items = have_metrics ? counterOf(metrics, "slo.items") : 0.0;
    if (items <= 0.0 && series.empty())
        return "";
    std::string out = "SLO / error-budget burn\n";
    if (items > 0.0) {
        out += strprintf(
            "  items %.0f, violations %.0f, budget consumed %.2fx, "
            "burn short %.2f, burn long %.2f\n",
            items, counterOf(metrics, "slo.violations"),
            gaugeOf(metrics, "slo.error_budget_consumed"),
            gaugeOf(metrics, "slo.burn_rate_short"),
            gaugeOf(metrics, "slo.burn_rate_long"));
    }
    if (!series.empty()) {
        const JsonValue &last = series.back();
        auto field = [&](const char *key) {
            const JsonValue *v = last.find(key);
            return v ? v->asNumber() : 0.0;
        };
        double burn_peak = 0.0;
        for (const JsonValue &s : series) {
            const JsonValue *b = s.find("burn_short");
            if (b)
                burn_peak = std::max(burn_peak, b->asNumber());
        }
        out += strprintf(
            "  timeseries: %zu samples over %.4g s, final burn "
            "short %.2f / long %.2f, peak burn short %.2f\n",
            series.size(), field("t_s"), field("burn_short"),
            field("burn_long"), burn_peak);
    }
    return out + "\n";
}

/**
 * Tail attribution from the exported tail.blame.* gauges: which
 * mechanism the p99-p50 gap blames, largest share first. Empty when
 * the run was not request-logged (the gauges only export then), so
 * pre-existing reports render unchanged.
 */
std::string
tailSection(const JsonValue &metrics)
{
    const JsonValue *gauges = metrics.find("gauges");
    if (!gauges)
        return "";
    const std::string prefix = "tail.blame.";
    std::vector<std::pair<std::string, double>> blame;
    for (const auto &[name, v] : gauges->fields) {
        if (name.size() > prefix.size() &&
            name.compare(0, prefix.size(), prefix) == 0)
            blame.emplace_back(name.substr(prefix.size()), v.asNumber());
    }
    if (blame.empty())
        return "";
    std::sort(blame.begin(), blame.end(),
              [](const auto &a, const auto &b) {
                  if (a.second != b.second)
                      return a.second > b.second;
                  return a.first < b.first;
              });
    std::string out = "Tail attribution (p99 - p50 blame, request log)\n";
    out += strprintf(
        "  requests %.0f, p50 %s, p99 %s, gap %s\n",
        counterOf(metrics, "tail.requests.recorded"),
        humanSeconds(gaugeOf(metrics, "tail.p50_seconds")).c_str(),
        humanSeconds(gaugeOf(metrics, "tail.p99_seconds")).c_str(),
        humanSeconds(gaugeOf(metrics, "tail.gap_seconds")).c_str());
    for (const auto &[cause, share] : blame)
        out += strprintf("  %-16s %5.1f%%\n", cause.c_str(),
                         share * 100.0);
    return out + "\n";
}

std::string
traceSection(const JsonValue &trace)
{
    const JsonValue *events = trace.find("traceEvents");
    if (!events || events->kind != JsonValue::Kind::Array ||
        events->items.empty())
        return "";
    size_t spans = 0, counters = 0, instants = 0;
    std::set<std::string> tracks;
    double t_min = 0.0, t_max = 0.0;
    bool first = true;
    for (const JsonValue &ev : events->items) {
        const JsonValue *ph = ev.find("ph");
        const JsonValue *ts = ev.find("ts");
        if (!ph || ph->kind != JsonValue::Kind::String)
            continue;
        if (ph->str == "X")
            ++spans;
        else if (ph->str == "i")
            ++instants;
        else if (ph->str == "C") {
            ++counters;
            const JsonValue *name = ev.find("name");
            if (name)
                tracks.insert(name->str);
        } else {
            continue;
        }
        if (ts) {
            double t = ts->asNumber() * 1e-6;
            double end = t;
            const JsonValue *dur = ev.find("dur");
            if (ph->str == "X" && dur)
                end = t + dur->asNumber() * 1e-6;
            if (first || t < t_min)
                t_min = t;
            if (first || end > t_max)
                t_max = end;
            first = false;
        }
    }
    std::string out = "Trace summary\n";
    out += strprintf(
        "  %zu spans, %zu counter samples on %zu tracks, %zu "
        "instants, time span [%.6g, %.6g] s\n",
        spans, counters, tracks.size(), instants, t_min, t_max);
    return out + "\n";
}

} // namespace

std::string
renderReport(const ReportInputs &inputs, std::string &error)
{
    JsonValue metrics, trace;
    bool have_metrics = false, have_trace = false;
    if (!inputs.metricsJson.empty()) {
        if (!parseJson(inputs.metricsJson, metrics, error)) {
            error = "metrics: " + error;
            return "";
        }
        have_metrics = true;
    }
    if (!inputs.traceJson.empty()) {
        if (!parseJson(inputs.traceJson, trace, error)) {
            error = "trace: " + error;
            return "";
        }
        have_trace = true;
    }
    std::vector<JsonValue> series;
    if (!inputs.timeseriesJsonl.empty()) {
        size_t start = 0, lineno = 0;
        while (start < inputs.timeseriesJsonl.size()) {
            size_t end = inputs.timeseriesJsonl.find('\n', start);
            if (end == std::string::npos)
                end = inputs.timeseriesJsonl.size();
            std::string line =
                inputs.timeseriesJsonl.substr(start, end - start);
            start = end + 1;
            ++lineno;
            if (line.find_first_not_of(" \t\r") == std::string::npos)
                continue;
            JsonValue sample;
            if (!parseJson(line, sample, error)) {
                error = strprintf("timeseries line %zu: %s", lineno,
                                  error.c_str());
                return "";
            }
            series.push_back(std::move(sample));
        }
    }

    std::string out = "recperf run report\n==================\n\n";
    if (have_metrics) {
        out += latencySection(metrics);
        out += operatorSection(metrics);
        out += cacheSection(metrics);
        out += rooflineSection(metrics);
    }
    out += sloSection(metrics, have_metrics, series);
    if (have_metrics)
        out += tailSection(metrics);
    if (have_trace)
        out += traceSection(trace);
    if (!have_metrics && !have_trace && series.empty())
        out += "(no artifacts given: pass --metrics, --trace, and/or "
               "--timeseries)\n";
    return out;
}

} // namespace obs
} // namespace recperf
