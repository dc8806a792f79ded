#include "stats.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdint>
#include <cstring>

namespace perfbench {

double
percentile(std::vector<double> samples, double pct)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    double rank = std::clamp(pct, 0.0, 100.0) / 100.0 *
        static_cast<double>(samples.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, samples.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 50.0);
}

Tail
tailPercentile(std::vector<double> samples, size_t min_beyond)
{
    Tail t;
    if (samples.empty())
        return t;
    std::sort(samples.begin(), samples.end());
    size_t n = samples.size();
    if (n <= min_beyond) {
        t.value = samples.back();
        t.pct = 100.0;
        return t;
    }
    size_t k = n - 1 - min_beyond;
    t.value = samples[k];
    t.pct = 100.0 * static_cast<double>(k) / static_cast<double>(n - 1);
    // Ties at the tail value are not "beyond" it.
    t.beyond = static_cast<size_t>(
        samples.end() - std::upper_bound(samples.begin(), samples.end(),
                                         t.value));
    return t;
}

SessionSummary
summarize(const std::vector<Session> &sessions)
{
    SessionSummary out;
    std::vector<double> p50, tail, pct, rate;
    out.minBeyond = sessions.empty() ? 0 : SIZE_MAX;
    for (const Session &s : sessions) {
        const Tail t = tailPercentile(s.samples);
        p50.push_back(median(s.samples));
        tail.push_back(t.value);
        pct.push_back(t.pct);
        rate.push_back(s.elapsed > 0.0 ? s.units / s.elapsed : 0.0);
        out.samples += s.samples.size();
        out.minBeyond = std::min(out.minBeyond, t.beyond);
    }
    out.sessionP50 = p50;
    out.p50 = median(p50);
    out.tail = median(tail);
    out.tailPct = median(pct);
    out.rate = median(rate);
    return out;
}

bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64 ||
        !std::isalnum(static_cast<unsigned char>(name[0])))
        return false;
    for (char c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
            c != '.' && c != '-')
            return false;
    }
    return true;
}

bool
validUnit(const std::string &unit)
{
    if (unit.empty() || unit.size() > 16)
        return false;
    for (char c : unit) {
        if (!std::isalnum(static_cast<unsigned char>(c)) &&
            !std::strchr("_/%.-", c))
            return false;
    }
    return true;
}

void
Digest::add(uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xff;
        h_ *= 0x100000001b3ULL;
    }
}

void
Digest::add(double v)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
}

void
Digest::add(const std::vector<double> &v)
{
    add(static_cast<uint64_t>(v.size()));
    for (double x : v)
        add(x);
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

uint64_t
mixSeed(uint64_t seed, uint64_t stream)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace perfbench
