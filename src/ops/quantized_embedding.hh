/**
 * @file
 * Row-wise 8-bit quantized embedding tables.
 *
 * The paper (§V, §VIII) points at aggressive compression as the way to
 * tame the RMCs' tens-of-GB embedding storage. This implements the
 * standard fused row-wise scheme used in production recommendation
 * stacks: each row stores int8 codes plus an fp32 (scale, bias) pair,
 * cutting storage ~4x and roughly halving the cache lines touched per
 * gather (dim 32: 128 B -> 40 B per row).
 */

#ifndef RECPERF_OPS_QUANTIZED_EMBEDDING_HH
#define RECPERF_OPS_QUANTIZED_EMBEDDING_HH

#include <cstdint>
#include <vector>

#include "ops/op_cost.hh"
#include "ops/sparse_lengths_sum.hh"
#include "tensor/tensor.hh"

namespace recperf {

/**
 * An embedding table quantized to int8 with per-row scale and bias
 * (fused row-wise quantization).
 */
class QuantizedEmbeddingTable
{
  public:
    /** Quantize an existing fp32 table. */
    explicit QuantizedEmbeddingTable(const EmbeddingTable &source);

    int64_t rows() const { return rows_; }
    int64_t dim() const { return dim_; }

    /** Bytes per stored row: dim int8 codes + fp32 scale + fp32 bias. */
    int64_t rowBytes() const { return dim_ + 8; }

    /** Total storage, ~4x below the fp32 original. */
    int64_t storageBytes() const { return rows_ * rowBytes(); }

    /** Dequantize a single row into @p out (length dim()). */
    void dequantizeRow(int64_t row, float *out) const;

    /**
     * Pooled lookup with on-the-fly dequantization; semantically
     * SparseLengthsSum over the dequantized table.
     */
    Tensor forward(const std::vector<int64_t> &ids,
                   const std::vector<int64_t> &lengths,
                   SlsReduction reduction = SlsReduction::Sum) const;

    /**
     * Worst-case absolute quantization error of any element: half a
     * quantization step of the widest row.
     */
    float maxQuantizationStep() const;

    /** Work accounting for one pooled quantized lookup. */
    static OpCost cost(int64_t total_ids, int64_t outputs, int64_t dim);

    /**
     * Raw mutable storage views for the integrity/fault layer
     * (ops/integrity.hh): shields checksum — and fault injection
     * corrupts — the stored bytes directly, scale/bias included.
     */
    uint8_t *codeData() { return codes_.data(); }
    float *scaleData() { return scales_.data(); }
    float *biasData() { return biases_.data(); }

    /** Check lookups through @p verifier (not owned; null = off). */
    void setVerifier(InlineVerifier *verifier) { verifier_ = verifier; }

  private:
    int64_t rows_;
    int64_t dim_;
    std::vector<uint8_t> codes_;  ///< rows_ x dim_ int8 codes
    std::vector<float> scales_;   ///< per-row scale
    std::vector<float> biases_;   ///< per-row bias (row minimum)
    InlineVerifier *verifier_ = nullptr;
};

} // namespace recperf

#endif // RECPERF_OPS_QUANTIZED_EMBEDDING_HH
