#include "trace/id_generator.hh"

#include <cmath>
#include <unordered_set>

#include "core/logging.hh"

namespace recperf {

std::vector<int64_t>
IdGenerator::draw(size_t n)
{
    std::vector<int64_t> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i)
        out.push_back(next());
    return out;
}

UniformGen::UniformGen(int64_t rows, Rng rng) : rows_(rows), rng_(rng)
{
    RP_ASSERT(rows > 0, "UniformGen needs a positive row count");
}

int64_t
UniformGen::next()
{
    return static_cast<int64_t>(rng_.nextBelow(
        static_cast<uint64_t>(rows_)));
}

ZipfGen::ZipfGen(int64_t rows, double alpha, Rng rng, bool scatter)
    : rows_(rows), alpha_(alpha), scatter_(scatter), rng_(rng)
{
    RP_ASSERT(rows > 0, "ZipfGen needs a positive row count");
    RP_ASSERT(alpha > 0.0, "Zipf alpha must be positive");
    h_integral_x1_ = hIntegral(1.5) - 1.0;
    h_integral_num_rows_ = hIntegral(static_cast<double>(rows_) + 0.5);
    s_ = 2.0 - hIntegralInverse(hIntegral(2.5) - h(2.0));
}

double
ZipfGen::hIntegral(double x) const
{
    double log_x = std::log(x);
    // (x^(1-alpha) - 1) / (1 - alpha), continuous at alpha == 1.
    double t = (1.0 - alpha_) * log_x;
    double helper = std::fabs(t) > 1e-8 ? std::expm1(t) / t : 1.0 + t / 2.0;
    return log_x * helper;
}

double
ZipfGen::hIntegralInverse(double y) const
{
    double t = y * (1.0 - alpha_);
    if (t < -1.0)
        t = -1.0;
    double helper = std::fabs(t) > 1e-8 ? std::log1p(t) / t : 1.0 - t / 2.0;
    return std::exp(y * helper);
}

double
ZipfGen::h(double x) const
{
    return std::exp(-alpha_ * std::log(x));
}

int64_t
ZipfGen::next()
{
    // Hormann's rejection-inversion sampling for the Zipf distribution.
    while (true) {
        double u = h_integral_num_rows_ +
            rng_.nextDouble() * (h_integral_x1_ - h_integral_num_rows_);
        double x = hIntegralInverse(u);
        auto k = static_cast<int64_t>(x + 0.5);
        if (k < 1)
            k = 1;
        else if (k > rows_)
            k = rows_;

        if (static_cast<double>(k) - x <= s_ ||
            u >= hIntegral(static_cast<double>(k) + 0.5) -
                h(static_cast<double>(k))) {
            int64_t rank0 = k - 1;
            if (!scatter_)
                return rank0;
            // Fibonacci-hash scatter so hot ranks land on unrelated
            // physical rows (and thus unrelated cache sets). rank+1 so
            // the hottest rank does not map to row 0.
            auto scattered = (static_cast<uint64_t>(rank0) + 1) *
                0x9e3779b97f4a7c15ULL;
            return static_cast<int64_t>(scattered %
                                        static_cast<uint64_t>(rows_));
        }
    }
}

RepeatGen::RepeatGen(std::unique_ptr<IdGenerator> base, double repeat_prob,
                     size_t window, Rng rng)
    : base_(std::move(base)), repeat_prob_(repeat_prob), window_(window),
      rng_(rng)
{
    RP_ASSERT(base_ != nullptr, "RepeatGen needs a base generator");
    RP_ASSERT(repeat_prob >= 0.0 && repeat_prob < 1.0,
              "repeat probability %f out of [0, 1)", repeat_prob);
    RP_ASSERT(window > 0, "RepeatGen needs a positive window");
    history_.reserve(window_);
}

int64_t
RepeatGen::next()
{
    const size_t n = history_.size();
    int64_t id;
    if (n != 0 && rng_.nextBool(repeat_prob_)) {
        // Logical index idx (0 = oldest) lives at (head_ + idx) mod n.
        size_t slot = head_ + static_cast<size_t>(rng_.nextBelow(n));
        id = history_[slot < n ? slot : slot - n];
    } else {
        id = base_->next();
    }
    if (n < window_) {
        history_.push_back(id);
    } else {
        // Full: the newest ID overwrites the oldest.
        history_[head_] = id;
        head_ = head_ + 1 == n ? 0 : head_ + 1;
    }
    return id;
}

double
uniqueFraction(const std::vector<int64_t> &trace)
{
    if (trace.empty())
        return 0.0;
    std::unordered_set<int64_t> distinct(trace.begin(), trace.end());
    return static_cast<double>(distinct.size()) /
        static_cast<double>(trace.size());
}

std::vector<TraceProfile>
productionTraceProfiles()
{
    // Spanning Fig 14: from nearly-unique (light personalization
    // services) to heavily repeated (viral-content ranking).
    return {
        {"trace-1", 0.60, 0.05, 512},
        {"trace-2", 0.70, 0.15, 512},
        {"trace-3", 0.80, 0.25, 1024},
        {"trace-4", 0.90, 0.35, 1024},
        {"trace-5", 0.95, 0.45, 2048},
        {"trace-6", 1.00, 0.55, 2048},
        {"trace-7", 1.05, 0.65, 4096},
        {"trace-8", 1.05, 0.75, 4096},
        {"trace-9", 1.10, 0.85, 8192},
        {"trace-10", 1.10, 0.93, 8192},
    };
}

std::unique_ptr<IdGenerator>
makeGenerator(const TraceProfile &profile, int64_t rows, Rng rng)
{
    Rng base_rng = rng.split();
    auto base = std::make_unique<ZipfGen>(rows, profile.zipfAlpha, base_rng);
    if (profile.repeatProb <= 0.0)
        return base;
    return std::make_unique<RepeatGen>(std::move(base), profile.repeatProb,
                                       profile.window, rng);
}

} // namespace recperf
