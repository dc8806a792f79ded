/**
 * @file
 * The metric catalogue and the one-line JSON result.
 *
 * Every run prints a provenance line (what host, ISA, threads and tuned
 * plans produced the numbers, plus the correctness details) and, last,
 * the result line: {"correct", "attempted", "failed", "metrics"}.
 * An untraced run reports every end-to-end metric, a traced run every
 * per-layer metric; a layer the workload never calls reports 0.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Metrics of an untraced run, in BENCHMARK.json order. */
const std::vector<MetricDef> &endToEndMetrics();

/** Metrics of a traced run, in BENCHMARK.json order. */
const std::vector<MetricDef> &perLayerMetrics();

class Report
{
  public:
    Report();

    /**
     * Set a catalogued metric (metrics never set read 0); a non-finite
     * value fails the run, an uncatalogued name throws.
     */
    void set(const std::string &name, double value);

    /** Record a correctness check; any false makes correct = false. */
    void check(bool ok, const std::string &what);

    /** Provenance entry; @p json is an already-encoded JSON value. */
    void note(const std::string &key, const std::string &json);
    void note(const std::string &key, double value);
    void noteString(const std::string &key, const std::string &value);

    uint64_t attempted = 0;
    uint64_t failed = 0;

    bool correct() const { return failures_.empty(); }

    /** {"provenance": {...}} — printed before the result line. */
    std::string provenanceJson() const;

    /**
     * The last line of a run's output: the per-layer metrics when
     * @p per_layer, else the end-to-end ones.
     */
    std::string resultJson(bool per_layer) const;

  private:
    struct Value
    {
        MetricDef def;
        bool perLayer = false;
        double value = 0.0;
    };
    std::vector<Value> values_;
    std::vector<std::pair<std::string, std::string>> notes_;
    std::vector<std::string> failures_;
};

/** JSON string literal for @p s. */
std::string jsonString(const std::string &s);

/** JSON number with all significant digits (17). */
std::string jsonNumber(double v);

/** JSON array of numbers. */
std::string jsonArray(const std::vector<double> &v);

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
