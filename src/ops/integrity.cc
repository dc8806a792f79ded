#include "ops/integrity.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/logging.hh"
#include "core/rng.hh"
#include "obs/metrics.hh"
#include "ops/fully_connected.hh"
#include "ops/quantized_embedding.hh"
#include "ops/sparse_lengths_sum.hh"

namespace recperf {

uint64_t
fnv1a(const void *data, size_t bytes, uint64_t h)
{
    const uint8_t *p = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

const char *
corruptionKindName(CorruptionKind kind)
{
    switch (kind) {
    case CorruptionKind::SingleBitFlip:
        return "single_bit_flip";
    case CorruptionKind::MultiBitFlip:
        return "multi_bit_flip";
    case CorruptionKind::StuckRow:
        return "stuck_row";
    }
    return "unknown";
}

IntegrityShield::IntegrityShield(std::string name, int64_t rows,
                                 std::vector<Region> regions)
    : name_(std::move(name)), rows_(rows), row_bytes_(0),
      regions_(std::move(regions))
{
    RP_ASSERT(rows_ > 0, "shield '%s' needs rows > 0", name_.c_str());
    RP_ASSERT(!regions_.empty(), "shield '%s' needs a region",
              name_.c_str());
    for (const Region &r : regions_) {
        RP_ASSERT(r.data != nullptr && r.rowBytes > 0 &&
                      r.strideBytes >= r.rowBytes,
                  "shield '%s': bad region", name_.c_str());
        row_bytes_ += r.rowBytes;
    }
}

IntegrityShield
IntegrityShield::forTable(EmbeddingTable &table, std::string name)
{
    size_t row = static_cast<size_t>(table.dim()) * sizeof(float);
    return IntegrityShield(
        std::move(name), table.rows(),
        {{reinterpret_cast<uint8_t *>(table.table().data()), row, row}});
}

IntegrityShield
IntegrityShield::forQuantized(QuantizedEmbeddingTable &table,
                              std::string name)
{
    // Three regions per row: the int8 payload plus the fp32 scale and
    // bias — a flip in any of them corrupts the dequantized row, so
    // all three feed the checksum (satellite: scale/bias included).
    return IntegrityShield(
        std::move(name), table.rows(),
        {{table.codeData(), static_cast<size_t>(table.dim()),
          static_cast<size_t>(table.dim())},
         {reinterpret_cast<uint8_t *>(table.scaleData()), sizeof(float),
          sizeof(float)},
         {reinterpret_cast<uint8_t *>(table.biasData()), sizeof(float),
          sizeof(float)}});
}

IntegrityShield
IntegrityShield::forLayer(FullyConnected &layer, std::string name)
{
    size_t wrow = static_cast<size_t>(layer.inFeatures()) * sizeof(float);
    return IntegrityShield(
        std::move(name), layer.outFeatures(),
        {{reinterpret_cast<uint8_t *>(layer.weight().data()), wrow, wrow},
         {reinterpret_cast<uint8_t *>(layer.bias().data()), sizeof(float),
          sizeof(float)}});
}

uint8_t *
IntegrityShield::rowByte(int64_t row, size_t offset) const
{
    for (const Region &r : regions_) {
        if (offset < r.rowBytes)
            return r.data + static_cast<size_t>(row) * r.strideBytes +
                offset;
        offset -= r.rowBytes;
    }
    RP_ASSERT(false, "shield '%s': byte offset out of row",
              name_.c_str());
    return nullptr;
}

void
IntegrityShield::gatherRow(int64_t row, uint8_t *out) const
{
    for (const Region &r : regions_) {
        std::memcpy(out, r.data + static_cast<size_t>(row) * r.strideBytes,
                    r.rowBytes);
        out += r.rowBytes;
    }
}

void
IntegrityShield::seal()
{
    checksums_.assign(static_cast<size_t>(rows_), 0);
    golden_.resize(static_cast<size_t>(rows_) * row_bytes_);
    for (int64_t row = 0; row < rows_; ++row) {
        uint8_t *dst = golden_.data() +
            static_cast<size_t>(row) * row_bytes_;
        gatherRow(row, dst);
        checksums_[static_cast<size_t>(row)] = fnv1a(dst, row_bytes_);
    }
}

uint64_t
IntegrityShield::rowChecksum(int64_t row) const
{
    RP_ASSERT(row >= 0 && row < rows_, "row %lld out of %lld",
              static_cast<long long>(row), static_cast<long long>(rows_));
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const Region &r : regions_)
        h = fnv1a(r.data + static_cast<size_t>(row) * r.strideBytes,
                  r.rowBytes, h);
    return h;
}

bool
IntegrityShield::verifyRow(int64_t row) const
{
    RP_ASSERT(sealed(), "shield '%s' not sealed", name_.c_str());
    return rowChecksum(row) == checksums_[static_cast<size_t>(row)];
}

std::vector<int64_t>
IntegrityShield::scanCorrupted() const
{
    std::vector<int64_t> bad;
    for (int64_t row = 0; row < rows_; ++row)
        if (!verifyRow(row))
            bad.push_back(row);
    return bad;
}

void
IntegrityShield::flipBit(int64_t row, uint64_t bit_offset)
{
    RP_ASSERT(row >= 0 && row < rows_, "row %lld out of %lld",
              static_cast<long long>(row), static_cast<long long>(rows_));
    RP_ASSERT(bit_offset < row_bytes_ * 8, "bit %llu out of row",
              static_cast<unsigned long long>(bit_offset));
    *rowByte(row, static_cast<size_t>(bit_offset / 8)) ^=
        static_cast<uint8_t>(1u << (bit_offset % 8));
}

int
IntegrityShield::corrupt(CorruptionKind kind, int64_t row,
                         uint64_t bit_offset, Rng &rng)
{
    switch (kind) {
    case CorruptionKind::SingleBitFlip:
        flipBit(row, bit_offset);
        return 1;
    case CorruptionKind::MultiBitFlip: {
        // A burst: the addressed bit plus two more in the same row
        // (multi-bit DRAM faults cluster within a word line).
        flipBit(row, bit_offset);
        for (int i = 0; i < 2; ++i)
            flipBit(row, rng.nextBelow(row_bytes_ * 8));
        return 3;
    }
    case CorruptionKind::StuckRow: {
        int flipped = 0;
        for (size_t b = 0; b < row_bytes_; ++b) {
            uint8_t *p = rowByte(row, b);
            flipped += 8 - __builtin_popcount(*p);
            *p = 0xFF; // stuck-at-one: fp32 lanes read back as NaN
        }
        return flipped;
    }
    }
    return 0;
}

bool
IntegrityShield::repairRow(int64_t row)
{
    RP_ASSERT(sealed(), "shield '%s' not sealed", name_.c_str());
    RP_ASSERT(row >= 0 && row < rows_, "row %lld out of %lld",
              static_cast<long long>(row), static_cast<long long>(rows_));
    const uint8_t *src = golden_.data() +
        static_cast<size_t>(row) * row_bytes_;
    bool changed = false;
    size_t offset = 0;
    for (const Region &r : regions_) {
        uint8_t *dst = r.data + static_cast<size_t>(row) * r.strideBytes;
        if (std::memcmp(dst, src + offset, r.rowBytes) != 0) {
            std::memcpy(dst, src + offset, r.rowBytes);
            changed = true;
        }
        offset += r.rowBytes;
    }
    return changed;
}

void
checkEnvelope(const float *x, size_t n, float max_abs,
              EnvelopeStats &stats)
{
    for (size_t i = 0; i < n; ++i) {
        float v = x[i];
        ++stats.checked;
        if (std::isnan(v))
            ++stats.nans;
        else if (std::isinf(v))
            ++stats.infs;
        else if (max_abs > 0.0f && std::fabs(v) > max_abs)
            ++stats.range;
    }
}

InlineVerifyStats &
InlineVerifyStats::operator+=(const InlineVerifyStats &o)
{
    batches += o.batches;
    verifiedBatches += o.verifiedBatches;
    rowsVerified += o.rowsVerified;
    detected += o.detected;
    repaired += o.repaired;
    return *this;
}

void
InlineVerifyStats::exportTo(obs::MetricsRegistry &registry) const
{
    registry.counter("integrity.inline.batches").add(batches);
    registry.counter("integrity.inline.verified_batches")
        .add(verifiedBatches);
    registry.counter("integrity.inline.rows_verified").add(rowsVerified);
    registry.counter("integrity.inline.detected").add(detected);
    registry.counter("integrity.inline.repaired").add(repaired);
}

InlineVerifier::InlineVerifier(IntegrityShield &shield, double sample_rate,
                               bool repair_on_detect)
    : shield_(shield), repair_on_detect_(repair_on_detect)
{
    RP_ASSERT(sample_rate > 0.0 && sample_rate <= 1.0,
              "inline sample rate %g outside (0,1]", sample_rate);
    RP_ASSERT(shield.sealed(), "inline verification needs a sealed shield");
    every_n_ = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::llround(1.0 / sample_rate)));
}

void
InlineVerifier::onLookup(const std::vector<int64_t> &ids)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (++stats_.batches % every_n_ != 0)
        return;
    ++stats_.verifiedBatches;
    std::vector<int64_t> rows(ids);
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    for (int64_t row : rows) {
        ++stats_.rowsVerified;
        if (shield_.verifyRow(row))
            continue;
        ++stats_.detected;
        if (repair_on_detect_ && shield_.repairRow(row))
            ++stats_.repaired;
    }
}

InlineVerifyStats
InlineVerifier::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

} // namespace recperf
