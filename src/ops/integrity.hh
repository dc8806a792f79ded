/**
 * @file
 * Silent-data-corruption defense for parameter state.
 *
 * Embedding tables dominate the models' DRAM footprint (§II, §V), which
 * makes them the largest silent-data-corruption surface: a flipped bit
 * in a hot row poisons every ranking that touches it without a crash or
 * timeout. This file supplies the functional half of the defense:
 *
 *  - IntegrityShield: per-row FNV-1a checksums plus a golden byte
 *    snapshot over any row-organized parameter block (fp32 embedding
 *    tables, quantized code/scale/bias triples, FC weight+bias rows),
 *    with primitive corruption operators (bit flips, stuck rows) and
 *    golden-copy repair;
 *  - InlineVerifier: one table's inline check, which samples its SLS
 *    lookup batches and verifies the touched rows. A table without
 *    one (the default) pays one null-pointer test per lookup batch
 *    and produces bitwise-identical output;
 *  - output-guard helpers: NaN/inf/range envelopes over activations.
 *
 * The virtual-time serving model (src/resilience/sdc.hh) reuses the
 * CorruptionKind taxonomy defined here.
 */

#ifndef RECPERF_OPS_INTEGRITY_HH
#define RECPERF_OPS_INTEGRITY_HH

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace recperf {

class EmbeddingTable;
class QuantizedEmbeddingTable;
class FullyConnected;
class Rng;

namespace obs {
class MetricsRegistry;
}

/** FNV-1a 64-bit hash (the repo's eval-checksum primitive). */
uint64_t fnv1a(const void *data, size_t bytes,
               uint64_t h = 0xcbf29ce484222325ULL);

/** Memory-corruption event kinds modeled by the fault axis. */
enum class CorruptionKind
{
    SingleBitFlip, ///< one flipped bit in a row
    MultiBitFlip,  ///< a burst of flipped bits in one row
    StuckRow,      ///< whole row reads as stuck-at-one (0xFF bytes)
};

/** Stable lower_snake name of a corruption kind (logs, traces). */
const char *corruptionKindName(CorruptionKind kind);

/**
 * Checksums + golden copy over a row-organized parameter block.
 *
 * A shield views its target as @c rows logical rows, each the
 * concatenation of one slice per Region (so a quantized row covers its
 * int8 codes, fp32 scale and fp32 bias even though they live in three
 * separate arrays). seal() records per-row checksums and a golden byte
 * snapshot; verifyRow()/scanCorrupted() detect divergence; repairRow()
 * restores the golden bytes. Checksum granularity is per row: coarser
 * (whole-table) cannot localize for quarantine, finer (per cache line)
 * multiplies metadata 8x for no extra recall (DESIGN.md §15).
 */
class IntegrityShield
{
  public:
    /** One strided byte slice contributing to every logical row. */
    struct Region
    {
        uint8_t *data;      ///< base of row 0's slice
        size_t strideBytes; ///< distance between consecutive rows
        size_t rowBytes;    ///< bytes contributed per row
    };

    IntegrityShield(std::string name, int64_t rows,
                    std::vector<Region> regions);

    /** Shield an fp32 embedding table (one region: the row). */
    static IntegrityShield forTable(EmbeddingTable &table,
                                    std::string name = "table");

    /** Shield a quantized table: codes + scale + bias per row. */
    static IntegrityShield forQuantized(QuantizedEmbeddingTable &table,
                                        std::string name = "qtable");

    /** Shield an FC layer: weight row + bias element per output. */
    static IntegrityShield forLayer(FullyConnected &layer,
                                    std::string name = "fc");

    const std::string &name() const { return name_; }
    int64_t rows() const { return rows_; }

    /** Logical bytes per row (sum over regions). */
    size_t rowBytes() const { return row_bytes_; }

    /** Record per-row checksums and the golden snapshot. */
    void seal();

    bool sealed() const { return !checksums_.empty(); }

    /** Checksum of the row's current bytes. */
    uint64_t rowChecksum(int64_t row) const;

    /** True when the row still matches its sealed checksum. */
    bool verifyRow(int64_t row) const;

    /** Full sweep; returns the rows failing verification. */
    std::vector<int64_t> scanCorrupted() const;

    /** Flip one bit; @p bit_offset indexes the logical row bytes. */
    void flipBit(int64_t row, uint64_t bit_offset);

    /**
     * Apply a corruption event; returns the number of bits flipped.
     * MultiBitFlip draws its extra bit positions from @p rng;
     * StuckRow forces every byte to 0xFF (stuck-at-one).
     */
    int corrupt(CorruptionKind kind, int64_t row, uint64_t bit_offset,
                Rng &rng);

    /** Restore the golden bytes; true when any byte changed. */
    bool repairRow(int64_t row);

  private:
    uint8_t *rowByte(int64_t row, size_t offset) const;
    void gatherRow(int64_t row, uint8_t *out) const;

    std::string name_;
    int64_t rows_;
    size_t row_bytes_;
    std::vector<Region> regions_;
    std::vector<uint64_t> checksums_; ///< per row, set by seal()
    std::vector<uint8_t> golden_;     ///< rows_ x row_bytes_ snapshot
};

/** Tally of one NaN/inf/range envelope check over activations. */
struct EnvelopeStats
{
    uint64_t checked = 0; ///< elements examined
    uint64_t nans = 0;    ///< NaN elements
    uint64_t infs = 0;    ///< +-inf elements
    uint64_t range = 0;   ///< finite elements with |x| > maxAbs

    bool clean() const { return nans == 0 && infs == 0 && range == 0; }
};

/**
 * Scan @p n floats against the output envelope; @p max_abs <= 0
 * disables the magnitude bound (NaN/inf still checked).
 */
void checkEnvelope(const float *x, size_t n, float max_abs,
                   EnvelopeStats &stats);

/** Counters of inline verification; they add across tables. */
struct InlineVerifyStats
{
    uint64_t batches = 0;         ///< lookup batches seen
    uint64_t verifiedBatches = 0; ///< batches sampled and verified
    uint64_t rowsVerified = 0;    ///< unique rows checked
    uint64_t detected = 0;        ///< rows failing their checksum
    uint64_t repaired = 0;        ///< rows restored from the golden copy

    InlineVerifyStats &operator+=(const InlineVerifyStats &o);

    /** Export the integrity.inline.* counters. */
    void exportTo(obs::MetricsRegistry &registry) const;
};

/**
 * Inline verification of one table's SLS lookups. The table holds a
 * not-owned pointer to its verifier (setVerifier) and hands it each
 * batch's touched IDs serially, before fanning out to the kernel, so
 * the per-table batch counter, and thus which batches verify, does
 * not depend on the thread count. Batch k is verified when
 * k % round(1/sample_rate) == 0; a verified batch checks its unique
 * touched rows and, on mismatch, repairs from the golden copy so the
 * gather reads clean rows.
 */
class InlineVerifier
{
  public:
    /**
     * @param shield the table's sealed shield; must outlive this.
     * @param sample_rate fraction of lookup batches verified, in (0, 1].
     * @param repair_on_detect restore golden bytes on mismatch.
     */
    InlineVerifier(IntegrityShield &shield, double sample_rate,
                   bool repair_on_detect = true);

    /** Called by the SLS forwards with the batch's touched IDs. */
    void onLookup(const std::vector<int64_t> &ids);

    InlineVerifyStats stats() const;

  private:
    IntegrityShield &shield_;
    bool repair_on_detect_;
    uint64_t every_n_ = 1;
    mutable std::mutex mu_;
    InlineVerifyStats stats_;
};

} // namespace recperf

#endif // RECPERF_OPS_INTEGRITY_HH
