#include "backend/nmp_backend.hh"

#include <algorithm>
#include <vector>

namespace recperf {

bool
nmpTableOffloaded(const NmpConfig &config, uint64_t storage_bytes,
                  double llc_share_bytes)
{
    switch (config.placement) {
      case NmpPlacement::All:
        return true;
      case NmpPlacement::None:
        return false;
      case NmpPlacement::Auto:
        break;
    }
    // Small or cache-fixable tables stay on the host: once their hot
    // rows live in the LLC the host gather is already cheap, and
    // offloading would only add link transfers and launch latency.
    if (storage_bytes < config.minTableBytes)
        return false;
    return static_cast<double>(storage_bytes) >
        config.hostLlcFraction * llc_share_bytes;
}

void
NmpBackend::timeSls(TimingContext &ctx, size_t table_index, OpTiming &t)
{
    const int64_t row_bytes = ctx.config.emb.rowBytes();
    const uint64_t storage_bytes =
        static_cast<uint64_t>(
            ctx.config.emb.rowsOf(static_cast<int64_t>(table_index))) *
        static_cast<uint64_t>(row_bytes);
    if (!nmpTableOffloaded(config_.nmp, storage_bytes,
                           ctx.llcShareBytes())) {
        CpuBackend::timeSls(ctx, table_index, t);
        return;
    }

    t.kind = OpKind::SLS;

    const NmpConfig &nmp = config_.nmp;
    const int64_t dim = ctx.config.emb.embDim;
    const int64_t rows = ctx.batch * ctx.config.emb.lookupsPerTable;

    // Consume the table's ID stream at the same rate as the host path
    // (one draw per pooled row) and spread the lookups across the PIM
    // ranks the way a physical layout would: a row lives in one rank,
    // chosen by a multiplicative hash of its ID. Duplicate IDs within
    // one offloaded op are coalesced — a RecNMP-style engine memoizes
    // the row after its first read and folds repeats into the running
    // sum — which is exactly what defuses the Zipf-hot-row rank
    // imbalance (every copy of a hot ID lands on the same rank). The
    // distinct IDs are sorted in the timer's scratch, mapped to their
    // ranks and sorted again, so the longest run of one rank is the
    // most-loaded rank's row count.
    IdGenerator &gen = *(*ctx.tableGens)[table_index];
    std::vector<uint64_t> &ids = *ctx.rowAddrs;
    ids.resize(static_cast<size_t>(rows));
    for (uint64_t &id : ids)
        id = static_cast<uint64_t>(gen.next());
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    for (uint64_t &id : ids)
        id = (((id + 1) * 0x9E3779B97F4A7C15ull) >> 32) % nmp.ranks;
    std::sort(ids.begin(), ids.end());
    uint64_t max_rank_rows = 0;
    for (size_t i = 0, run = 0; i < ids.size(); ++i) {
        run = i > 0 && ids[i] == ids[i - 1] ? run + 1 : 1;
        max_rank_rows = std::max<uint64_t>(max_rank_rows, run);
    }

    // In-rank gather: each rank reads its share of rows at its own
    // bandwidth plus a fixed activate/column overhead per row; the op
    // completes when the most-loaded rank drains.
    const double row_seconds =
        static_cast<double>(row_bytes) / (nmp.rankGBps * 1e9) +
        nmp.rowAccessNs * 1e-9;
    const double gather_seconds =
        static_cast<double>(max_rank_rows) * row_seconds;

    // Host link: sparse IDs up (8 B each, with the launch round trip),
    // one pooled fp32 vector per sample down.
    const double upload_bytes = static_cast<double>(rows) * 8.0;
    const double download_bytes = static_cast<double>(ctx.batch) *
        static_cast<double>(dim) * 4.0;
    const double upload_seconds = nmp.launchUs * 1e-6 +
        upload_bytes / (nmp.linkGBps * 1e9);
    const double download_seconds = download_bytes / (nmp.linkGBps * 1e9);

    t.offloadSeconds = gather_seconds;
    t.transferBytes = static_cast<uint64_t>(upload_bytes) +
        static_cast<uint64_t>(download_bytes);
    t.memorySeconds = upload_seconds + download_seconds;
    t.dispatchSeconds = ctx.machine.dispatchSeconds(t.kind);

    // The host core only marshals IDs and receives pooled vectors — no
    // hierarchy traffic (dramLines stays 0), no SMT contention on the
    // gather, and an instruction stream that is just the marshaling.
    t.instructions = static_cast<double>(rows) * 2.0 +
        ctx.machine.dispatchCyclesFor(t.kind);

    const double flops = static_cast<double>(rows) *
        static_cast<double>(dim);
    t.cost.flops = flops;
    t.cost.bytesRead = static_cast<double>(rows) *
        (static_cast<double>(row_bytes) + 8.0);
    t.cost.bytesWritten = download_bytes;

    t.seconds = upload_seconds + gather_seconds + download_seconds +
        t.dispatchSeconds;
}

} // namespace recperf
