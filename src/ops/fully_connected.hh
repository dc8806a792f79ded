/**
 * @file
 * Fully-connected (dense) layer: Y = X * W^T + b.
 *
 * This is the compute-intensive operator of the paper's recommendation
 * models (Bottom-FC / Top-FC in Fig 3). The forward kernel is a
 * cache-blocked fp32 GEMM; a naive reference lives in ops/reference.hh
 * for correctness testing.
 */

#ifndef RECPERF_OPS_FULLY_CONNECTED_HH
#define RECPERF_OPS_FULLY_CONNECTED_HH

#include <cstdint>

#include "ops/microkernels.hh"
#include "ops/op_cost.hh"
#include "tensor/tensor.hh"

namespace recperf {

class Rng;

/**
 * A fully-connected layer with owned weights [out, in] and bias [out].
 */
class FullyConnected
{
  public:
    /** Construct with zero weights. */
    FullyConnected(int64_t in_features, int64_t out_features);

    /** Construct and He-initialize weights from @p rng. */
    FullyConnected(int64_t in_features, int64_t out_features, Rng &rng);

    int64_t inFeatures() const { return in_; }
    int64_t outFeatures() const { return out_; }

    Tensor &weight() { return weight_; }
    const Tensor &weight() const { return weight_; }
    Tensor &bias() { return bias_; }
    const Tensor &bias() const { return bias_; }

    /**
     * Forward pass.
     * @param x activations of shape [batch, in_features].
     * @return activations of shape [batch, out_features].
     */
    Tensor forward(const Tensor &x) const;

    /**
     * Forward pass into caller-owned storage: y[batch, out_features] =
     * x[batch, in_features] * W^T + b, then ReLU when @p relu. Bias and
     * ReLU run in the GEMM tile's store, with the same per-output
     * arithmetic as forward() followed by reluInplace().
     */
    void forwardInto(const float *x, int64_t batch, float *y,
                     bool relu) const;

    /** Number of parameters (weights + bias). */
    int64_t paramCount() const { return in_ * out_ + out_; }

    /** Work accounting for one forward pass at the given batch size. */
    static OpCost cost(int64_t batch, int64_t in_features,
                       int64_t out_features);

  private:
    int64_t in_;
    int64_t out_;
    Tensor weight_;
    Tensor bias_;
};

/**
 * Standalone blocked GEMM used by FullyConnected and BatchMatMul:
 * C[m, n] (+)= A[m, k] * B^T where B is stored as [n, k].
 *
 * @param accumulate when false, C is overwritten; when true, added into.
 * @param epilogue applied to each output after its sum: +bias[j], then
 *        ReLU (see microkernels::GemmEpilogue).
 */
void gemmBt(const float *a, const float *b, float *c, int64_t m, int64_t n,
            int64_t k, bool accumulate,
            microkernels::GemmEpilogue epilogue = {});

} // namespace recperf

#endif // RECPERF_OPS_FULLY_CONNECTED_HH
