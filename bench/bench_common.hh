/**
 * @file
 * Shared helpers for the figure/table regeneration benchmarks.
 *
 * Every binary in bench/ regenerates one table or figure of the paper:
 * it runs the corresponding experiment on the simulated fleet and
 * prints the same rows/series the paper reports, so results can be
 * compared shape-for-shape against the original.
 */

#ifndef RECPERF_BENCH_BENCH_COMMON_HH
#define RECPERF_BENCH_BENCH_COMMON_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "machine/simd.hh"
#include "obs/json.hh"
#include "ops/kernel_cache.hh"

namespace recperf {
namespace bench {

/** Print a centered banner naming the figure being regenerated. */
inline void
banner(const std::string &title)
{
    std::string rule(72, '=');
    std::printf("%s\n%s\n%s\n", rule.c_str(), title.c_str(), rule.c_str());
}

/** Print a section separator. */
inline void
section(const std::string &title)
{
    std::printf("\n-- %s --\n", title.c_str());
}

/** Render a fixed-width ASCII bar scaled to @p frac of @p width. */
inline std::string
bar(double frac, int width = 40)
{
    if (frac < 0.0)
        frac = 0.0;
    if (frac > 1.0)
        frac = 1.0;
    int n = static_cast<int>(frac * width + 0.5);
    return std::string(static_cast<size_t>(n), '#');
}

/** Ordered JSON object: typed add() calls render fields in order. */
class JsonObject
{
  public:
    JsonObject &add(const std::string &key, const std::string &value)
    {
        return raw(key, '"' + obs::jsonEscape(value) + '"');
    }
    JsonObject &add(const std::string &key, const char *value)
    {
        return add(key, std::string(value));
    }
    JsonObject &add(const std::string &key, double value)
    {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.10g", value);
        return raw(key, buf);
    }
    JsonObject &add(const std::string &key, int64_t value)
    {
        return raw(key, std::to_string(value));
    }
    JsonObject &add(const std::string &key, uint64_t value)
    {
        return raw(key, std::to_string(value));
    }
    JsonObject &add(const std::string &key, int value)
    {
        return add(key, static_cast<int64_t>(value));
    }
    JsonObject &add(const std::string &key, unsigned value)
    {
        return add(key, static_cast<uint64_t>(value));
    }
    JsonObject &add(const std::string &key, bool value)
    {
        return raw(key, value ? "true" : "false");
    }

    /** Render with every field on one line, indented @p indent. */
    std::string render(int indent) const
    {
        std::string pad(static_cast<size_t>(indent), ' ');
        std::string out = "{\n";
        for (size_t i = 0; i < fields_.size(); ++i) {
            out += pad + "  \"" + fields_[i].first +
                "\": " + fields_[i].second;
            out += i + 1 < fields_.size() ? ",\n" : "\n";
        }
        return out + pad + "}";
    }

  private:
    JsonObject &raw(const std::string &key, std::string rendered)
    {
        fields_.emplace_back(key, std::move(rendered));
        return *this;
    }

    std::vector<std::pair<std::string, std::string>> fields_;
};

/**
 * Uniform emitter for the in-tree BENCH_*.json files:
 *
 *   { "schema_version": 1, "bench": "<name>",
 *     "machine": {...}, "config": {...}, "results": [ {...}, ... ] }
 *
 * `machine` is pre-seeded with the host core count; benches append
 * whatever else identifies the run (thread list, model, ...) to
 * config() and push one flat JsonObject per measured point to
 * newResult().
 */
class JsonWriter
{
  public:
    static constexpr int kSchemaVersion = 1;

    explicit JsonWriter(std::string bench_name)
        : bench_(std::move(bench_name))
    {
        machine_.add("host_cores",
                     static_cast<uint64_t>(
                         std::thread::hardware_concurrency()));
        // Stamp the ISA policy the kernels run under so
        // scripts/bench_diff.py can flag a cross-ISA comparison as
        // config drift instead of reporting it as a perf regression.
        // Benches execute CPU kernels only.
        const IsaPolicy isa = KernelCache::global().policy();
        machine_.add("backend", "cpu");
        machine_.add("isa",
                     isa.autoSelect ? "auto" : kernelIsaName(isa.pinned));
    }

    JsonObject &machine() { return machine_; }
    JsonObject &config() { return config_; }

    JsonObject &newResult()
    {
        results_.emplace_back();
        return results_.back();
    }

    std::string str() const
    {
        std::string out = "{\n";
        out += "  \"schema_version\": " +
            std::to_string(kSchemaVersion) + ",\n";
        out += "  \"bench\": \"" + bench_ + "\",\n";
        out += "  \"machine\": " + machine_.render(2) + ",\n";
        out += "  \"config\": " + config_.render(2) + ",\n";
        out += "  \"results\": [\n";
        for (size_t i = 0; i < results_.size(); ++i) {
            out += "    " + results_[i].render(4);
            out += i + 1 < results_.size() ? ",\n" : "\n";
        }
        out += "  ]\n}\n";
        return out;
    }

    /**
     * Write to @p path, or print to stdout when @p path is empty.
     * Returns false (after a stderr warning) when the file cannot be
     * opened.
     */
    bool writeOrPrint(const std::string &path) const
    {
        std::string json = str();
        if (path.empty()) {
            std::printf("\n%s", json.c_str());
            return true;
        }
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "error: cannot open %s\n",
                         path.c_str());
            return false;
        }
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
        std::printf("\n  wrote %s\n", path.c_str());
        return true;
    }

  private:
    std::string bench_;
    JsonObject machine_;
    JsonObject config_;
    std::vector<JsonObject> results_;
};

} // namespace bench
} // namespace recperf

#endif // RECPERF_BENCH_BENCH_COMMON_HH
