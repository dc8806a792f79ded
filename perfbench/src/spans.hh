/**
 * @file
 * In-memory span log for the traced run.
 *
 * Spans are recorded by the benchmark around its own calls into each
 * layer's public functions (nothing inside src/ is instrumented), kept
 * in memory, and written as a Chrome trace when the run ends. Only the
 * thread that drives the workload records spans.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

class SpanLog
{
  public:
    SpanLog() : origin_(Clock::now()) {}

    /** Open a span whose parent is the innermost open span. */
    size_t
    open(const char *name)
    {
        int parent = stack_.empty() ? -1 : static_cast<int>(stack_.back());
        spans_.push_back({name, parent, Clock::now(), Clock::time_point{}});
        stack_.push_back(spans_.size() - 1);
        return spans_.size() - 1;
    }

    /** Close the innermost span (which must be @p id). */
    void
    close(size_t id)
    {
        spans_[id].end = Clock::now();
        stack_.pop_back();
    }

    size_t size() const { return spans_.size(); }

    /** Write the spans as Chrome-trace complete events; false on error. */
    bool
    writeChromeTrace(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "{\"traceEvents\": [\n");
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                         "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                         "\"args\": {\"id\": %zu, \"parent\": %d}}\n",
                         i ? "," : "", s.name,
                         secondsBetween(origin_, s.begin) * 1e6,
                         secondsBetween(s.begin, s.end) * 1e6, i,
                         s.parent);
        }
        std::fprintf(f, "]}\n");
        return std::fclose(f) == 0;
    }

  private:
    struct Span
    {
        const char *name;
        int parent;
        Clock::time_point begin;
        Clock::time_point end;
    };
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<size_t> stack_;
};

/**
 * Times one call: adds its duration to @p *acc and, when @p log is
 * non-null, records it as a span.
 */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, const char *name, double *acc)
        : log_(log), acc_(acc), start_(Clock::now())
    {
        if (log_)
            id_ = log_->open(name);
    }
    ~ScopedSpan()
    {
        *acc_ += secondsBetween(start_, Clock::now());
        if (log_)
            log_->close(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog *log_;
    double *acc_;
    Clock::time_point start_;
    size_t id_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
