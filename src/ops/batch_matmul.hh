/**
 * @file
 * Batched matrix multiply, used for pairwise feature interaction.
 *
 * DLRM-style models interact the pooled embedding vectors and the
 * Bottom-FC output by stacking them into Z of shape [batch, f, d] and
 * computing Z * Z^T per batch element; the paper's operator breakdowns
 * report this as BatchMatMul.
 */

#ifndef RECPERF_OPS_BATCH_MATMUL_HH
#define RECPERF_OPS_BATCH_MATMUL_HH

#include "ops/op_cost.hh"
#include "tensor/tensor.hh"

namespace recperf {

/**
 * C[b] = A[b] * B[b]^T for every batch element b.
 *
 * @param a tensor of shape [batch, m, k].
 * @param b tensor of shape [batch, n, k] (transposed operand).
 * @return tensor of shape [batch, m, n].
 */
Tensor batchMatMulBt(const Tensor &a, const Tensor &b);

/**
 * Pairwise dot-product interaction: given features [batch, f, d],
 * return the strictly-lower-triangular entries of Z * Z^T flattened to
 * [batch, f*(f-1)/2]. This is DLRM's "dot" interaction.
 */
Tensor dotInteraction(const Tensor &features);

/**
 * dotInteraction on raw storage: @p features is [batch, f, d]
 * contiguous; sample b's f*(f-1)/2 pairs go to out[b*ldo, ...). Same
 * per-pair arithmetic as dotInteraction.
 */
void dotInteractionInto(const float *features, int64_t batch, int64_t f,
                        int64_t d, float *out, int64_t ldo);

/** Work accounting for batchMatMulBt. */
OpCost batchMatMulCost(int64_t batch, int64_t m, int64_t n, int64_t k);

} // namespace recperf

#endif // RECPERF_OPS_BATCH_MATMUL_HH
