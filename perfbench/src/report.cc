#include "report.hh"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "stats.hh"

namespace perfbench {

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"requests_per_s", "1/s"},
        {"latency_ms_p50", "ms"},
        {"latency_ms_tail", "ms"},
        {"setup_s", "s"},
        {"peak_rss_mb", "MiB"},
        {"sim_slowdown", "s/s"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"ops.fc.ms", "ms"},
        {"ops.fc.gflops", "GFLOP/s"},
        {"ops.fc.calls", "count"},
        {"ops.fc.parallel_speedup", "x"},
        {"ops.fc.parallel_speedup_nproc", "x"},
        {"ops.sls.ms", "ms"},
        {"ops.sls.gbps", "GB/s"},
        {"ops.sls.calls", "count"},
        {"ops.interaction.ms", "ms"},
        {"ops.elementwise.ms", "ms"},
        {"model.orchestration_ms", "ms"},
        {"model.allocs_per_forward", "count"},
        {"model.alloc_mb_per_forward", "MiB"},
        {"kernel_cache.tuning_s", "s"},
        {"kernel_cache.tunes", "count"},
        {"kernel_cache.hits", "count"},
        {"timing.run_us", "us"},
        {"timing.runs", "count"},
        {"trace.ns_per_draw", "ns"},
        {"simcache.accesses_per_run", "count"},
        {"simcache.ns_per_access", "ns"},
        {"simcache.l1_hit_ratio", "ratio"},
        {"simcache.llc_hit_ratio", "ratio"},
        {"serving.batches", "count"},
        {"serving.mean_batch", "items"},
        {"serving.virtual_ms_p50", "ms"},
        {"serving.virtual_ms_p99", "ms"},
        {"distributed.shard_requests", "count"},
        {"distributed.failed", "count"},
        {"resilience.hedges", "count"},
        {"resilience.hedge_win_ratio", "ratio"},
        {"resilience.retries", "count"},
        {"tracing.overhead_ms", "ms"},
    };
    return defs;
}

Report::Report()
{
    for (bool per_layer : {false, true}) {
        for (const MetricDef &d :
             per_layer ? perLayerMetrics() : endToEndMetrics()) {
            if (!validMetricName(d.name) || !validUnit(d.unit))
                throw std::logic_error(std::string("bad metric ") + d.name);
            values_.push_back({d, per_layer, 0.0});
        }
    }
}

void
Report::set(const std::string &name, double value)
{
    for (Value &v : values_) {
        if (name == v.def.name) {
            check(std::isfinite(value), name + " is finite");
            v.value = std::isfinite(value) ? value : 0.0;
            return;
        }
    }
    throw std::logic_error("uncatalogued metric " + name);
}

void
Report::check(bool ok, const std::string &what)
{
    if (!ok)
        failures_.push_back(what);
}

void
Report::note(const std::string &key, const std::string &json)
{
    notes_.emplace_back(key, json);
}

void
Report::note(const std::string &key, double value)
{
    note(key, jsonNumber(value));
}

void
Report::noteString(const std::string &key, const std::string &value)
{
    note(key, jsonString(value));
}

std::string
Report::provenanceJson() const
{
    std::string out = "{\"provenance\": {";
    for (size_t i = 0; i < notes_.size(); ++i) {
        if (i)
            out += ", ";
        out += jsonString(notes_[i].first) + ": " + notes_[i].second;
    }
    out += ", \"failed_checks\": [";
    for (size_t i = 0; i < failures_.size(); ++i)
        out += (i ? ", " : "") + jsonString(failures_[i]);
    return out + "]}}";
}

std::string
Report::resultJson(bool per_layer) const
{
    std::string out = std::string("{\"correct\": ") +
        (correct() ? "true" : "false") +
        ", \"attempted\": " + std::to_string(attempted) +
        ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    bool first = true;
    for (const Value &v : values_) {
        if (v.perLayer != per_layer)
            continue;
        if (!first)
            out += ", ";
        first = false;
        out += jsonString(v.def.name) + ": {\"value\": " +
            jsonNumber(v.value) + ", \"unit\": " + jsonString(v.def.unit) +
            "}";
    }
    return out + "}}";
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonArray(const std::vector<double> &v)
{
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i)
        out += (i ? ", " : "") + jsonNumber(v[i]);
    return out + "]";
}

} // namespace perfbench
