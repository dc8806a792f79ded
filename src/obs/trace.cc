#include "obs/trace.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>

#include "core/logging.hh"
#include "core/thread_pool.hh"
#include "obs/json.hh"

namespace recperf {
namespace obs {

namespace {

/** Pool chunk hook: one wall span per executed parallelFor chunk. */
void
poolChunkToTrace(int64_t lo, int64_t hi,
                 std::chrono::steady_clock::time_point t0,
                 std::chrono::steady_clock::time_point t1)
{
    Tracer::global().wallSpanAt(
        "pool", strprintf("chunk [%lld, %lld)", static_cast<long long>(lo),
                          static_cast<long long>(hi)),
        t0, t1);
}

/** True when @p v is a plain JSON number (emit unquoted). */
bool
looksNumeric(const std::string &v)
{
    if (v.empty())
        return false;
    size_t i = v[0] == '-' ? 1 : 0;
    if (i >= v.size())
        return false;
    bool digit = false, dot = false, exp = false;
    for (; i < v.size(); ++i) {
        char c = v[i];
        if (std::isdigit(static_cast<unsigned char>(c))) {
            digit = true;
        } else if (c == '.' && !dot && !exp) {
            dot = true;
        } else if ((c == 'e' || c == 'E') && digit && !exp) {
            exp = true;
            if (i + 1 < v.size() && (v[i + 1] == '+' || v[i + 1] == '-'))
                ++i;
        } else {
            return false;
        }
    }
    return digit;
}

void
appendEventJson(std::string &out, const TraceEvent &ev)
{
    out += strprintf("{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"%c\", "
                     "\"ts\": %.3f, ",
                     jsonEscape(ev.name).c_str(), ev.cat, ev.ph, ev.tsUs);
    if (ev.ph == 'X')
        out += strprintf("\"dur\": %.3f, ", ev.durUs);
    if (ev.ph == 'i')
        out += "\"s\": \"t\", ";
    out += strprintf("\"pid\": 1, \"tid\": %u", ev.tid);
    if (!ev.args.empty()) {
        out += ", \"args\": {";
        bool first = true;
        for (const auto &[k, v] : ev.args) {
            out += strprintf("%s\"%s\": ", first ? "" : ", ",
                             jsonEscape(k).c_str());
            if (looksNumeric(v))
                out += v;
            else
                out += "\"" + jsonEscape(v) + "\"";
            first = false;
        }
        out += "}";
    }
    out += "}";
}

} // namespace

Tracer &
Tracer::global()
{
    static Tracer *tracer = new Tracer();
    return *tracer;
}

void
Tracer::setEnabled(bool on)
{
    if (on)
        wall_epoch_ = std::chrono::steady_clock::now();
    enabled_.store(on, std::memory_order_relaxed);
    // The pool hook is only installed while tracing so the untraced
    // pool never pays for clock reads.
    if (this == &global())
        setPoolChunkHook(on ? &poolChunkToTrace : nullptr);
}

double
Tracer::wallSeconds() const
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         wall_epoch_)
        .count();
}

Tracer::Buffer *
Tracer::buffer()
{
    struct Slot
    {
        Tracer *tracer = nullptr;
        std::shared_ptr<Buffer> buf;
    };
    thread_local Slot slot;
    if (slot.tracer != this || !slot.buf) {
        auto fresh = std::make_shared<Buffer>();
        {
            std::lock_guard<std::mutex> lock(mu_);
            buffers_.push_back(fresh);
        }
        slot.tracer = this;
        slot.buf = std::move(fresh);
    }
    return slot.buf.get();
}

uint32_t
Tracer::wallTid()
{
    struct Slot
    {
        Tracer *tracer = nullptr;
        uint32_t tid = 0;
    };
    thread_local Slot slot;
    if (slot.tracer != this) {
        std::lock_guard<std::mutex> lock(mu_);
        slot.tracer = this;
        slot.tid = next_wall_tid_++;
    }
    return slot.tid;
}

void
Tracer::emit(TraceEvent ev)
{
    Buffer *buf = buffer();
    ev.seq = buf->next_seq++;
    buf->events.push_back(std::move(ev));
}

void
Tracer::span(const char *cat, std::string name, double t0_seconds,
             double t1_seconds, uint32_t tid,
             std::vector<std::pair<std::string, std::string>> args)
{
    if (!enabled())
        return;
    TraceEvent ev;
    ev.name = std::move(name);
    ev.cat = cat;
    ev.ph = 'X';
    ev.tsUs = t0_seconds * 1e6;
    ev.durUs = (t1_seconds - t0_seconds) * 1e6;
    ev.tid = tid;
    ev.args = std::move(args);
    emit(std::move(ev));
}

void
Tracer::instant(const char *cat, std::string name, double t_seconds,
                uint32_t tid,
                std::vector<std::pair<std::string, std::string>> args)
{
    if (!enabled())
        return;
    TraceEvent ev;
    ev.name = std::move(name);
    ev.cat = cat;
    ev.ph = 'i';
    ev.tsUs = t_seconds * 1e6;
    ev.tid = tid;
    ev.args = std::move(args);
    emit(std::move(ev));
}

void
Tracer::counter(const char *cat, std::string name, double t_seconds,
                uint32_t tid, double value)
{
    if (!enabled())
        return;
    TraceEvent ev;
    ev.name = std::move(name);
    ev.cat = cat;
    ev.ph = 'C';
    ev.tsUs = t_seconds * 1e6;
    ev.tid = tid;
    ev.args.emplace_back("value", jsonNumber(value));
    emit(std::move(ev));
}

void
Tracer::wallSpanAt(const char *cat, std::string name,
                   std::chrono::steady_clock::time_point t0,
                   std::chrono::steady_clock::time_point t1)
{
    if (!enabled())
        return;
    TraceEvent ev;
    ev.name = std::move(name);
    ev.cat = cat;
    ev.ph = 'X';
    ev.tsUs = std::chrono::duration<double, std::micro>(t0 - wall_epoch_)
                  .count();
    ev.durUs = std::chrono::duration<double, std::micro>(t1 - t0).count();
    ev.tid = wallTid();
    emit(std::move(ev));
}

void
Tracer::wallSpan(const char *cat, const char *name, double t0)
{
    // Checked enabled() at scope construction; a race with disable just
    // records one extra event, which is harmless.
    double t1 = wallSeconds();
    TraceEvent ev;
    ev.name = name;
    ev.cat = cat;
    ev.ph = 'X';
    ev.tsUs = t0 * 1e6;
    ev.durUs = (t1 - t0) * 1e6;
    ev.tid = wallTid();
    emit(std::move(ev));
}

void
Tracer::nameLane(uint32_t tid, const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    lane_names_[tid] = name;
}

std::vector<TraceEvent>
Tracer::snapshot() const
{
    std::vector<TraceEvent> all;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto &buf : buffers_) {
            all.insert(all.end(), buf->events.begin(),
                       buf->events.end());
        }
    }
    std::stable_sort(all.begin(), all.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         if (a.tsUs != b.tsUs)
                             return a.tsUs < b.tsUs;
                         if (a.tid != b.tid)
                             return a.tid < b.tid;
                         // Parent-before-child at equal start: the
                         // longer span encloses the shorter one.
                         if (a.durUs != b.durUs)
                             return a.durUs > b.durUs;
                         return a.seq < b.seq;
                     });
    return all;
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &buf : buffers_)
        buf->events.clear();
}

std::string
Tracer::toJson() const
{
    std::string out = "{\"traceEvents\": [\n";
    bool first = true;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto &[tid, name] : lane_names_) {
            out += strprintf("%s{\"name\": \"thread_name\", \"ph\": \"M\", "
                             "\"pid\": 1, \"tid\": %u, \"args\": "
                             "{\"name\": \"%s\"}}",
                             first ? "" : ",\n", tid,
                             jsonEscape(name).c_str());
            first = false;
        }
    }
    for (const TraceEvent &ev : snapshot()) {
        out += first ? "" : ",\n";
        appendEventJson(out, ev);
        first = false;
    }
    out += "\n],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": "
           "{\"producer\": \"recperf::obs\", \"schema_version\": 1}}\n";
    return out;
}

bool
Tracer::writeFile(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        RP_WARN("cannot open trace output '%s'", path.c_str());
        return false;
    }
    std::string json = toJson();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    return true;
}

} // namespace obs
} // namespace recperf
