/**
 * @file
 * Functional execution of a recommendation model (Fig 3).
 *
 * Dense features flow through the Bottom-FC stack; each sparse-feature
 * vector is pooled through its embedding table (SparseLengthsSum); the
 * results are concatenated and processed by the Top-FC stack; a sigmoid
 * produces the predicted click-through rate.
 */

#ifndef RECPERF_MODEL_REC_MODEL_HH
#define RECPERF_MODEL_REC_MODEL_HH

#include <vector>

#include "model/config.hh"
#include "ops/fully_connected.hh"
#include "ops/sparse_lengths_sum.hh"
#include "tensor/tensor.hh"

namespace recperf {

class Rng;

/** Sparse IDs for one embedding table across a batch. */
struct SparseInput
{
    /** Flat row indices, grouped per sample. */
    std::vector<int64_t> ids;
    /** IDs per sample; lengths.size() == batch. */
    std::vector<int64_t> lengths;
};

/** A full batch of model inputs. */
struct ModelInput
{
    Tensor dense;                     ///< [batch, denseFeatures]
    std::vector<SparseInput> sparse;  ///< one entry per embedding table
};

/**
 * A materialized recommendation model with real fp32 parameters.
 *
 * Construction allocates all weights, so paper-scale configs should be
 * passed through ModelConfig::functionalScale() first; the timing layer
 * characterizes full-scale configs without materializing them.
 */
class RecModel
{
  public:
    /** Build with randomly initialized parameters. */
    RecModel(const ModelConfig &config, Rng &rng);

    const ModelConfig &config() const { return config_; }

    /**
     * Predict CTRs for a batch.
     *
     * @return tensor of shape [batch, 1] with values in (0, 1).
     */
    Tensor forward(const ModelInput &input) const;

    /** Draw a random, well-formed input batch for this model. */
    ModelInput randomInput(int64_t batch, Rng &rng) const;

    /** Total parameter count (FC + embeddings). */
    int64_t paramCount() const;

    const std::vector<FullyConnected> &bottomLayers() const { return bottom_; }
    const std::vector<FullyConnected> &topLayers() const { return top_; }
    const std::vector<EmbeddingTable> &tables() const { return tables_; }

    /** Mutable table access, for fault injection into embedding rows. */
    std::vector<EmbeddingTable> &tables() { return tables_; }

  private:
    ModelConfig config_;
    std::vector<FullyConnected> bottom_;
    std::vector<FullyConnected> top_;
    std::vector<EmbeddingTable> tables_;
    int64_t actWidth_ = 0; ///< widest activation row forward() stores
    int64_t catWidth_ = 0; ///< concat row: bottom output + every table
};

} // namespace recperf

#endif // RECPERF_MODEL_REC_MODEL_HH
