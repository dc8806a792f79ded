/**
 * @file
 * A minimal dense fp32 tensor for functional model execution.
 *
 * All production and baseline models in this project (RMC1/2/3, NCF)
 * store activations and parameters as fp32, matching the paper's "all
 * data and model parameters are stored in fp32 format" (Section IV).
 * The tensor is row-major and owns cache-line-aligned storage.
 */

#ifndef RECPERF_TENSOR_TENSOR_HH
#define RECPERF_TENSOR_TENSOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/aligned.hh"

namespace recperf {

class EmbeddingTable;
class FullyConnected;
class Rng;
class Tensor;

Tensor concatCols(const std::vector<const Tensor *> &inputs);

/** Shape of a tensor; empty shape denotes a scalar. */
using Shape = std::vector<int64_t>;

/** Number of elements a shape describes. */
int64_t numElements(const Shape &shape);

/** Human-readable "[a, b, c]" rendering. */
std::string shapeToString(const Shape &shape);

/**
 * Dense row-major fp32 tensor with owned, 64-byte-aligned storage.
 *
 * Supports ranks 0 through 4, which covers everything the
 * recommendation, NCF, and proxy models need.
 */
class Tensor
{
  public:
    /** An empty (rank-0, zero-element placeholder) tensor. */
    Tensor() = default;

    /** Allocate a zero-initialized tensor of the given shape. */
    explicit Tensor(Shape shape);

    /** Allocate and fill with a constant. */
    Tensor(Shape shape, float fill_value);

    const Shape &shape() const { return shape_; }
    int64_t dim(size_t i) const;
    size_t rank() const { return shape_.size(); }
    int64_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    float *data() { return buf_.data(); }
    const float *data() const { return buf_.data(); }

    /** Flat element access. */
    float &at(int64_t i);
    float at(int64_t i) const;

    /** 2-D element access (requires rank 2). */
    float &at(int64_t r, int64_t c);
    float at(int64_t r, int64_t c) const;

    /** Set every element to @p value. */
    void fill(float value);

    /** Fill with uniform values in [lo, hi). */
    void fillUniform(Rng &rng, float lo, float hi);

    /** Fill with N(0, stddev) values (e.g., for weight init). */
    void fillGaussian(Rng &rng, float stddev);

    /** True when shapes match and elements differ by at most @p tol. */
    bool allClose(const Tensor &other, float tol = 1e-5f) const;

    /** Reinterpret as a new shape with the same element count. */
    Tensor reshaped(Shape new_shape) const;

  private:
    friend class EmbeddingTable;
    friend class FullyConnected;
    friend Tensor concatCols(const std::vector<const Tensor *> &inputs);

    /**
     * Allocate without the zero fill, for a result its producer writes
     * in full (reshape copy, concat, GEMM and SLS outputs). Contents are
     * indeterminate until then.
     */
    static Tensor uninitialized(Shape shape);

    Shape shape_;
    int64_t size_ = 0;
    AlignedBuffer<float> buf_;
};

} // namespace recperf

#endif // RECPERF_TENSOR_TENSOR_HH
