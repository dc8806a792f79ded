/**
 * @file
 * Unit and statistical tests for sparse-ID trace generation (Fig 14).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>

#include "core/logging.hh"
#include "trace/id_generator.hh"

namespace recperf {
namespace {

TEST(UniformGen, StaysInRange)
{
    UniformGen gen(100, Rng(1));
    for (int i = 0; i < 10'000; ++i) {
        int64_t id = gen.next();
        EXPECT_GE(id, 0);
        EXPECT_LT(id, 100);
    }
}

TEST(UniformGen, NearlyUniqueOverLargeDomain)
{
    UniformGen gen(10'000'000, Rng(2));
    auto trace = gen.draw(10'000);
    EXPECT_GT(uniqueFraction(trace), 0.99);
}

TEST(UniformGen, RejectsEmptyDomain)
{
    EXPECT_THROW(UniformGen(0, Rng(1)), PanicError);
}

TEST(ZipfGen, StaysInRange)
{
    ZipfGen gen(1000, 1.0, Rng(3));
    for (int i = 0; i < 10'000; ++i) {
        int64_t id = gen.next();
        EXPECT_GE(id, 0);
        EXPECT_LT(id, 1000);
    }
}

TEST(ZipfGen, RankOneDominatesWithoutScatter)
{
    ZipfGen gen(10'000, 1.0, Rng(5), /*scatter=*/false);
    std::map<int64_t, int> counts;
    const int n = 50'000;
    for (int i = 0; i < n; ++i)
        ++counts[gen.next()];
    // Rank 0 should receive roughly 1/H(N) of the mass — about 10% for
    // alpha=1, N=1e4 — and be the most popular row.
    int max_count = 0;
    for (auto &[id, c] : counts)
        max_count = std::max(max_count, c);
    EXPECT_EQ(counts.begin()->first, 0);
    EXPECT_EQ(counts[0], max_count);
    EXPECT_GT(counts[0], n / 20);
}

TEST(ZipfGen, HigherAlphaIsMoreSkewed)
{
    auto top_share = [](double alpha) {
        ZipfGen gen(100'000, alpha, Rng(7), /*scatter=*/false);
        int top = 0;
        const int n = 20'000;
        for (int i = 0; i < n; ++i)
            top += gen.next() < 10 ? 1 : 0;
        return static_cast<double>(top) / n;
    };
    EXPECT_GT(top_share(1.2), top_share(0.8));
    EXPECT_GT(top_share(0.8), top_share(0.5));
}

TEST(ZipfGen, ScatterDecorrelatesButPreservesSkew)
{
    ZipfGen gen(100'000, 1.0, Rng(9), /*scatter=*/true);
    std::map<int64_t, int> counts;
    const int n = 50'000;
    for (int i = 0; i < n; ++i)
        ++counts[gen.next()];
    int max_count = 0;
    int64_t hottest = -1;
    for (auto &[id, c] : counts) {
        if (c > max_count) {
            max_count = c;
            hottest = id;
        }
    }
    EXPECT_NE(hottest, 0);          // not physically first
    EXPECT_GT(max_count, n / 25);   // still very hot
}

TEST(ZipfGen, RejectsBadParams)
{
    EXPECT_THROW(ZipfGen(0, 1.0, Rng(1)), PanicError);
    EXPECT_THROW(ZipfGen(10, 0.0, Rng(1)), PanicError);
}

TEST(ZipfGen, MatchesTheoreticalFrequencies)
{
    // Chi-square-style check on the top 5 ranks for alpha = 1.
    const int64_t rows = 1000;
    ZipfGen gen(rows, 1.0, Rng(11), /*scatter=*/false);
    double harmonic = 0.0;
    for (int64_t k = 1; k <= rows; ++k)
        harmonic += 1.0 / static_cast<double>(k);
    std::map<int64_t, int> counts;
    const int n = 200'000;
    for (int i = 0; i < n; ++i)
        ++counts[gen.next()];
    for (int64_t rank = 0; rank < 5; ++rank) {
        double expected = n / (static_cast<double>(rank + 1) * harmonic);
        EXPECT_NEAR(counts[rank], expected, 0.1 * expected)
            << "rank " << rank;
    }
}

TEST(RepeatGen, ZeroWindowRejected)
{
    EXPECT_THROW(RepeatGen(std::make_unique<UniformGen>(10, Rng(1)), 0.5, 0,
                           Rng(2)),
                 PanicError);
    EXPECT_THROW(RepeatGen(nullptr, 0.5, 8, Rng(2)), PanicError);
    EXPECT_THROW(RepeatGen(std::make_unique<UniformGen>(10, Rng(1)), 1.0, 8,
                           Rng(2)),
                 PanicError);
}

/** The deque-based window RepeatGen's ring buffer must reproduce. */
class DequeRepeatGen
{
  public:
    DequeRepeatGen(std::unique_ptr<IdGenerator> base, double repeat_prob,
                   size_t window, Rng rng)
        : base_(std::move(base)), repeat_prob_(repeat_prob),
          window_(window), rng_(rng)
    {
    }

    int64_t
    next()
    {
        int64_t id;
        if (!history_.empty() && rng_.nextBool(repeat_prob_))
            id = history_[rng_.nextBelow(history_.size())];
        else
            id = base_->next();
        history_.push_back(id);
        if (history_.size() > window_)
            history_.pop_front();
        return id;
    }

  private:
    std::unique_ptr<IdGenerator> base_;
    double repeat_prob_;
    size_t window_;
    Rng rng_;
    std::deque<int64_t> history_;
};

TEST(RepeatGen, RingMatchesDequeWindow)
{
    for (size_t window : {size_t{1}, size_t{2}, size_t{7}, size_t{4096}}) {
        RepeatGen gen(std::make_unique<UniformGen>(1'000'000, Rng(31)), 0.6,
                      window, Rng(32));
        DequeRepeatGen ref(std::make_unique<UniformGen>(1'000'000, Rng(31)),
                           0.6, window, Rng(32));
        for (size_t i = 0; i < 3 * window; ++i) {
            ASSERT_EQ(gen.next(), ref.next())
                << "window " << window << " draw " << i;
            ASSERT_EQ(gen.historySize(), std::min(i + 1, window));
        }
    }
}

TEST(RepeatGen, UniqueFractionTracksRepeatProb)
{
    // Over a huge base domain, unique fraction ~ (1 - repeatProb).
    for (double p : {0.0, 0.3, 0.6, 0.9}) {
        RepeatGen gen(std::make_unique<UniformGen>(100'000'000, Rng(13)), p,
                      4096, Rng(14));
        auto trace = gen.draw(20'000);
        EXPECT_NEAR(uniqueFraction(trace), 1.0 - p, 0.06) << "p=" << p;
    }
}

TEST(RepeatGen, MonotoneInRepeatProb)
{
    double prev = 2.0;
    for (double p : {0.1, 0.3, 0.5, 0.7, 0.9}) {
        RepeatGen gen(std::make_unique<UniformGen>(10'000'000, Rng(15)), p,
                      1024, Rng(16));
        double uf = uniqueFraction(gen.draw(10'000));
        EXPECT_LT(uf, prev);
        prev = uf;
    }
}

TEST(UniqueFraction, EdgeCases)
{
    EXPECT_EQ(uniqueFraction({}), 0.0);
    EXPECT_EQ(uniqueFraction({5}), 1.0);
    EXPECT_EQ(uniqueFraction({5, 5, 5, 5}), 0.25);
    EXPECT_EQ(uniqueFraction({1, 2, 3, 4}), 1.0);
}

TEST(TraceProfiles, SpanFig14Range)
{
    // The ten production-like profiles should cover a wide unique-ID
    // spectrum, strictly ordered from mostly-unique to mostly-repeated.
    auto profiles = productionTraceProfiles();
    ASSERT_EQ(profiles.size(), 10u);
    std::vector<double> fractions;
    Rng rng(17);
    for (const TraceProfile &p : profiles) {
        auto gen = makeGenerator(p, 5'000'000, rng.split());
        fractions.push_back(uniqueFraction(gen->draw(20'000)));
    }
    EXPECT_GT(fractions.front(), 0.6);
    EXPECT_LT(fractions.back(), 0.12);
    for (size_t i = 1; i < fractions.size(); ++i)
        EXPECT_LT(fractions[i], fractions[i - 1] + 0.05) << "profile " << i;
}

TEST(IdGenerator, DrawReturnsRequestedCount)
{
    UniformGen gen(100, Rng(19));
    EXPECT_EQ(gen.draw(0).size(), 0u);
    EXPECT_EQ(gen.draw(57).size(), 57u);
}

} // namespace
} // namespace recperf
