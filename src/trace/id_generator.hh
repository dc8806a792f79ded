/**
 * @file
 * Sparse-ID trace generation for embedding-table lookups.
 *
 * The paper's Fig 14 shows that the fraction of *unique* sparse IDs per
 * use case varies widely across production traces — from nearly random
 * to highly repetitive — which determines how much embedding-vector
 * reuse a cache can exploit. The open-source benchmark ships trace
 * generators for exactly this purpose; these are our equivalents:
 *
 *  - UniformGen: uniform random rows (the "random" bar of Fig 14);
 *  - ZipfGen: power-law popularity, the classic recommendation skew;
 *  - RepeatGen: wraps any generator and re-issues recently-seen IDs
 *    with probability p, directly dialing the unique-ID fraction.
 */

#ifndef RECPERF_TRACE_ID_GENERATOR_HH
#define RECPERF_TRACE_ID_GENERATOR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/rng.hh"

namespace recperf {

/** Produces an endless stream of embedding row indices in [0, rows). */
class IdGenerator
{
  public:
    virtual ~IdGenerator() = default;

    /** Next sparse ID. */
    virtual int64_t next() = 0;

    /** Number of distinct rows this generator draws from. */
    virtual int64_t rows() const = 0;

    /** Convenience: draw @p n IDs. */
    std::vector<int64_t> draw(size_t n);
};

/** Uniform random rows — no reuse beyond birthday collisions. */
class UniformGen : public IdGenerator
{
  public:
    UniformGen(int64_t rows, Rng rng);

    int64_t next() override;
    int64_t rows() const override { return rows_; }

  private:
    int64_t rows_;
    Rng rng_;
};

/**
 * Zipf-distributed rows: P(k) proportional to 1/k^alpha over row ranks
 * 1..rows. Sampled with Hormann's rejection-inversion, which is O(1)
 * per draw even for multi-million-row tables. Row IDs are additionally
 * scattered with a multiplicative hash so that hot rows are not
 * physically adjacent in the table (as in real embedding tables).
 */
class ZipfGen : public IdGenerator
{
  public:
    /**
     * @param alpha skew parameter; ~0.6-1.1 for recommendation traffic.
     * @param scatter when true, decorrelate rank from physical row.
     */
    ZipfGen(int64_t rows, double alpha, Rng rng, bool scatter = true);

    int64_t next() override;
    int64_t rows() const override { return rows_; }
    double alpha() const { return alpha_; }

  private:
    double hIntegral(double x) const;
    double hIntegralInverse(double y) const;
    double h(double x) const;

    int64_t rows_;
    double alpha_;
    bool scatter_;
    Rng rng_;
    double h_integral_x1_;
    double h_integral_num_rows_;
    double s_;
};

/**
 * Temporal-locality wrapper: with probability @p repeat_prob the next
 * ID is re-drawn uniformly from a sliding window of recent IDs,
 * otherwise it comes from the base generator. The expected unique-ID
 * fraction of a long trace is approximately (1 - repeat_prob) for
 * large tables, making Fig 14's spectrum directly reproducible.
 */
class RepeatGen : public IdGenerator
{
  public:
    RepeatGen(std::unique_ptr<IdGenerator> base, double repeat_prob,
              size_t window, Rng rng);

    int64_t next() override;
    int64_t rows() const override { return base_->rows(); }
    double repeatProb() const { return repeat_prob_; }

    /** IDs currently in the re-reference window (at most window). */
    size_t historySize() const { return history_.size(); }

  private:
    std::unique_ptr<IdGenerator> base_;
    double repeat_prob_;
    size_t window_;
    Rng rng_;
    /**
     * The last min(draws, window) IDs as a ring, oldest at head_. It
     * grows by push_back until full into a window reserved up front,
     * so a draw never allocates (timers draw on pool workers).
     */
    std::vector<int64_t> history_;
    size_t head_ = 0;
};

/** Fraction of distinct values in a trace (the Fig 14 y-axis). */
double uniqueFraction(const std::vector<int64_t> &trace);

/** A named trace recipe, mirroring the paper's production traces 1-10. */
struct TraceProfile
{
    std::string name;
    double zipfAlpha;   ///< popularity skew
    double repeatProb;  ///< temporal re-reference probability
    size_t window;      ///< re-reference window (IDs)
};

/**
 * Ten synthetic production-like profiles spanning Fig 14's range of
 * unique-ID fractions (~5% to ~90%), plus callers can always use plain
 * UniformGen for the "random" reference bar.
 */
std::vector<TraceProfile> productionTraceProfiles();

/** Instantiate a generator for a profile over a table of @p rows rows. */
std::unique_ptr<IdGenerator> makeGenerator(const TraceProfile &profile,
                                           int64_t rows, Rng rng);

} // namespace recperf

#endif // RECPERF_TRACE_ID_GENERATOR_HH
