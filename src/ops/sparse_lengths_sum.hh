/**
 * @file
 * SparseLengthsSum — the embedding-table operator (Algorithm 1).
 *
 * Transforms lists of sparse categorical IDs into dense vectors by
 * gathering rows of an embedding table and reducing them element-wise.
 * This is the memory-intensive, irregular-access operator that
 * distinguishes recommendation models from CNNs/RNNs (Section II-C).
 */

#ifndef RECPERF_OPS_SPARSE_LENGTHS_SUM_HH
#define RECPERF_OPS_SPARSE_LENGTHS_SUM_HH

#include <cstdint>
#include <vector>

#include "ops/op_cost.hh"
#include "tensor/tensor.hh"

namespace recperf {

class InlineVerifier;
class Rng;

/** Reduction applied across the gathered embedding rows. */
enum class SlsReduction
{
    Sum,  ///< element-wise sum (the Caffe2 SparseLengthsSum default)
    Mean, ///< element-wise mean (SparseLengthsMean)
};

/**
 * An embedding table of shape [rows, dim] with the pooled-lookup
 * operator from Algorithm 1 of the paper.
 */
class EmbeddingTable
{
  public:
    /** Construct a zero table. */
    EmbeddingTable(int64_t rows, int64_t dim);

    /** Construct with uniform(-0.5, 0.5)/dim initialization. */
    EmbeddingTable(int64_t rows, int64_t dim, Rng &rng);

    int64_t rows() const { return rows_; }
    int64_t dim() const { return dim_; }
    Tensor &table() { return table_; }
    const Tensor &table() const { return table_; }

    /** Parameter count (rows * dim). */
    int64_t paramCount() const { return rows_ * dim_; }

    /** Storage footprint in bytes at fp32. */
    int64_t storageBytes() const { return paramCount() * 4; }

    /** Check lookups through @p verifier (not owned; null = off). */
    void setVerifier(InlineVerifier *verifier) { verifier_ = verifier; }

    /**
     * Pooled lookup, exactly Algorithm 1 (SLS pseudo-code).
     *
     * @param ids flat list of row indices, concatenated per output slot.
     * @param lengths number of IDs contributing to each output row;
     *                lengths.size() output rows are produced and
     *                sum(lengths) must equal ids.size().
     * @param reduction Sum or Mean across the gathered rows.
     * @return dense tensor of shape [lengths.size(), dim].
     */
    Tensor forward(const std::vector<int64_t> &ids,
                   const std::vector<int64_t> &lengths,
                   SlsReduction reduction = SlsReduction::Sum) const;

    /**
     * forward() into caller-owned storage: output row i is written to
     * dst[i*ld, i*ld + dim) (zero-filled, then accumulated), so a
     * table's pooled rows can land straight in their column slice of a
     * wider concat buffer. Bit-identical to forward().
     */
    void forwardInto(const std::vector<int64_t> &ids,
                     const std::vector<int64_t> &lengths, float *dst,
                     int64_t ld,
                     SlsReduction reduction = SlsReduction::Sum) const;

    /**
     * Work accounting for one pooled lookup.
     * @param total_ids total number of gathered rows (sum of lengths).
     * @param outputs number of pooled output rows.
     * @param dim embedding dimension.
     */
    static OpCost cost(int64_t total_ids, int64_t outputs, int64_t dim);

  private:
    int64_t rows_;
    int64_t dim_;
    Tensor table_;
    InlineVerifier *verifier_ = nullptr;
};

} // namespace recperf

#endif // RECPERF_OPS_SPARSE_LENGTHS_SUM_HH
