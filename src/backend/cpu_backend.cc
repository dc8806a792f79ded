#include "backend/cpu_backend.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "backend/timing_shared.hh"
#include "core/aligned.hh"
#include "timing/model_timer.hh"

namespace recperf {

namespace {

/** How many rows ahead timeSls asks the host to load LLC tag blocks. */
constexpr int64_t kHostPrefetchRows = 8;

} // namespace

void
CpuBackend::timeFc(TimingContext &ctx, int64_t in, int64_t out, OpTiming &t)
{
    t.kind = OpKind::FC;

    const double weight_bytes = static_cast<double>(in * out + out) * 4.0;
    const double act_bytes =
        static_cast<double>(ctx.batch * (in + out)) * 4.0;
    const double flops =
        2.0 * static_cast<double>(ctx.batch) * static_cast<double>(in) *
        static_cast<double>(out);

    // Steady-state residency: which level do the weights live in?
    HitLevel level;
    if (weight_bytes <= kL2UsableFrac *
            static_cast<double>(ctx.machine.l2.sizeBytes)) {
        level = HitLevel::L2;
    } else if (weight_bytes <= ctx.llcShareBytes()) {
        level = HitLevel::L3;
    } else {
        level = HitLevel::Memory;
    }

    // DRAM fills — other tenants' and this tenant's own embedding
    // traffic — displace part of the weight lines between consecutive
    // inferences.
    double refetch_frac = 0.0;
    if (level == HitLevel::L3) {
        // Capacity contention in the shared LLC. An exclusive LLC is
        // only filled by the (much slower) stream of L2 victims, so
        // displacement pressure is reduced.
        double pressure = ctx.otherDramBytesPerInf + ctx.lastDramBytes;
        if (ctx.machine.policy == InclusionPolicy::Exclusive)
            pressure *= 0.5;
        // The neighbours' fill traffic is bursty: how much of it lands
        // between two of this tenant's weight reuses varies inference
        // to inference. This burstiness is what blows up p99 latency
        // under heavy co-location (Fig 11) while p5 stays put.
        pressure *= std::exp(ctx.contentionRng->nextGaussian() * 0.6);
        refetch_frac = std::min(1.0, pressure / ctx.llcShareBytes());
    } else if (level == HitLevel::L2 &&
               ctx.machine.policy == InclusionPolicy::Inclusive) {
        // Inclusive back-invalidation: when an L3 line with an L2 copy
        // is evicted by another tenant's fill, the L2 copy dies too.
        double pressure = ctx.otherDramBytesPerInf *
            std::exp(ctx.contentionRng->nextGaussian() * 0.6);
        refetch_frac = std::min(
            1.0,
            pressure / static_cast<double>(ctx.machine.l3.sizeBytes));
    }

    double dram_queue = dramQueueFactor(ctx.activeTenants);
    double stream_seconds =
        ctx.machine.streamSeconds(level, weight_bytes) *
        (level == HitLevel::Memory ? dram_queue : 1.0);

    // Displacement refetches are latency-exposed: they hit in bursts
    // the prefetcher cannot anticipate, so — unlike steady streaming —
    // they do not hide under the compute roofline.
    double refetch_extra = refetch_frac * std::max(
        0.0, dram_queue *
                ctx.machine.streamSeconds(HitLevel::Memory, weight_bytes) -
            ctx.machine.streamSeconds(level, weight_bytes));

    // Activation traffic, from the private L2 (or LLC when large).
    HitLevel act_level = act_bytes <= 0.5 *
            static_cast<double>(ctx.machine.l2.sizeBytes)
        ? HitLevel::L2 : HitLevel::L3;
    stream_seconds += ctx.machine.streamSeconds(act_level, act_bytes);

    t.computeSeconds =
        flops / (ctx.machine.simd.achievedFlopsPerCycle(ctx.batch) *
                 ctx.machine.cyclesPerSecond());
    t.memorySeconds = stream_seconds + refetch_extra;
    t.dispatchSeconds = ctx.machine.dispatchSeconds(t.kind);
    t.instructions = vectorInstructions(flops, weight_bytes + act_bytes,
                                        simdLanes(ctx.machine.simd.isa)) +
        ctx.machine.dispatchCyclesFor(t.kind);
    t.cost.flops = flops;
    t.cost.bytesRead = weight_bytes +
        static_cast<double>(ctx.batch * in) * 4.0;
    t.cost.bytesWritten = static_cast<double>(ctx.batch * out) * 4.0;

    double dram_bytes = refetch_frac * weight_bytes +
        (level == HitLevel::Memory ? weight_bytes : 0.0);
    t.dramLines = static_cast<uint64_t>(dram_bytes / kCacheLineBytes);
    uint64_t weight_lines =
        static_cast<uint64_t>(weight_bytes / kCacheLineBytes);
    if (level == HitLevel::L2)
        t.l2Lines = weight_lines;
    else if (level == HitLevel::L3)
        t.l3Lines = weight_lines - t.dramLines;

    double ht = ctx.hyperthreading ? kHtFcPenalty : 1.0;
    t.seconds = (std::max(t.computeSeconds, stream_seconds) +
                 refetch_extra + t.dispatchSeconds) * ht;
}

void
CpuBackend::timeSls(TimingContext &ctx, size_t table_index, OpTiming &t)
{
    t.kind = OpKind::SLS;

    const int64_t dim = ctx.config.emb.embDim;
    const int64_t row_bytes = ctx.config.emb.rowBytes();
    const uint64_t lines_per_row =
        (static_cast<uint64_t>(row_bytes) + kCacheLineBytes - 1) /
        kCacheLineBytes;
    const int64_t rows = ctx.batch * ctx.config.emb.lookupsPerTable;
    const uint64_t table_base = ctx.addressBase +
        (static_cast<uint64_t>(table_index) + 1) * kTableRegionBytes;

    // The generator never reads cache state, so drawing every ID first
    // keeps the draw order; the IDs in hand let the host load the LLC
    // tag blocks a few rows ahead of the simulated accesses.
    IdGenerator &gen = *(*ctx.tableGens)[table_index];
    std::vector<uint64_t> &row_addrs = *ctx.rowAddrs;
    row_addrs.resize(static_cast<size_t>(rows));
    for (uint64_t &addr : row_addrs) {
        addr = table_base + static_cast<uint64_t>(gen.next()) *
            static_cast<uint64_t>(row_bytes);
    }
    uint64_t hits[4] = {0, 0, 0, 0};
    for (int64_t r = 0; r < rows; ++r) {
        if (r + kHostPrefetchRows < rows) {
            uint64_t ahead = row_addrs[r + kHostPrefetchRows];
            for (uint64_t l = 0; l < lines_per_row; ++l)
                ctx.hier->hostPrefetch(ahead + l * kCacheLineBytes);
        }
        uint64_t row_addr = row_addrs[r];
        for (uint64_t l = 0; l < lines_per_row; ++l) {
            HitLevel level = ctx.hier->access(
                ctx.tenant, row_addr + l * kCacheLineBytes);
            ++hits[static_cast<int>(level)];
        }
    }

    t.l1Lines = hits[0];
    t.l2Lines = hits[1];
    t.l3Lines = hits[2];
    t.dramLines = hits[3];

    t.memorySeconds =
        ctx.machine.gatherSeconds(HitLevel::L1,
                                  static_cast<double>(hits[0])) +
        ctx.machine.gatherSeconds(HitLevel::L2,
                                  static_cast<double>(hits[1])) +
        ctx.machine.gatherSeconds(HitLevel::L3,
                                  static_cast<double>(hits[2])) +
        ctx.machine.gatherSeconds(HitLevel::Memory,
                                  static_cast<double>(hits[3]),
                                  ctx.batch) *
            dramQueueFactor(ctx.activeTenants) +
        static_cast<double>(rows) * kSlsPerRowCycles /
            ctx.machine.cyclesPerSecond();

    const double flops = static_cast<double>(rows) *
        static_cast<double>(dim);
    // Element-wise sums issue on the vector units but are latency-bound
    // behind the gathers; a quarter of peak is generous.
    t.computeSeconds = flops /
        (0.25 * ctx.machine.simd.peakFlopsPerCycle() *
         ctx.machine.cyclesPerSecond());
    t.dispatchSeconds = ctx.machine.dispatchSeconds(t.kind);
    t.instructions = static_cast<double>(rows) *
            (static_cast<double>(dim) /
                 simdLanes(ctx.machine.simd.isa) * 2.0 +
             8.0) +
        ctx.machine.dispatchCyclesFor(t.kind);
    t.cost.flops = flops;
    // Row reads plus 8 B of sparse-ID metadata per row; one pooled
    // output vector per sample.
    t.cost.bytesRead = static_cast<double>(rows) *
        (static_cast<double>(row_bytes) + 8.0);
    t.cost.bytesWritten = static_cast<double>(ctx.batch) *
        static_cast<double>(dim) * 4.0;

    double ht = ctx.hyperthreading ? kHtSlsPenalty : 1.0;
    t.seconds = (std::max(t.computeSeconds, t.memorySeconds) +
                 t.dispatchSeconds) * ht;
}

void
CpuBackend::timeConcat(TimingContext &ctx, OpTiming &t)
{
    t.kind = OpKind::Concat;
    double bytes = static_cast<double>(ctx.batch) *
        static_cast<double>(ctx.config.topInputDim()) * 4.0 * 2.0;
    t.memorySeconds = ctx.machine.streamSeconds(HitLevel::L2, bytes);
    t.dispatchSeconds = ctx.machine.dispatchSeconds(t.kind);
    t.instructions = bytes / 32.0 + ctx.machine.dispatchCyclesFor(t.kind);
    t.cost.bytesRead = bytes * 0.5;
    t.cost.bytesWritten = bytes * 0.5;
    double ht = ctx.hyperthreading ? kHtSlsPenalty : 1.0;
    t.seconds = (t.memorySeconds + t.dispatchSeconds) * ht;
}

void
CpuBackend::timeBatchMM(TimingContext &ctx, OpTiming &t)
{
    t.kind = OpKind::BatchMM;

    const int64_t f = ctx.config.featureCount();
    const int64_t d = ctx.config.emb.embDim;
    // Caffe2 computes the full f x f product per sample and slices the
    // triangle afterwards.
    const double flops = 2.0 * static_cast<double>(ctx.batch) *
        static_cast<double>(f) * static_cast<double>(f) *
        static_cast<double>(d);
    const double bytes = static_cast<double>(ctx.batch) *
        (static_cast<double>(f * d) * 4.0 +
         static_cast<double>(f * f) * 4.0);

    // The GEMM M-dimension is the feature count (tens), so wide-SIMD
    // register tiles fill according to f, not the request batch.
    t.computeSeconds = flops /
        (ctx.machine.simd.achievedFlopsPerCycle(f) *
         ctx.machine.cyclesPerSecond());
    t.memorySeconds = ctx.machine.streamSeconds(HitLevel::L2, bytes);
    t.dispatchSeconds = ctx.machine.dispatchSeconds(t.kind);
    t.instructions = vectorInstructions(flops, bytes,
                                        simdLanes(ctx.machine.simd.isa)) +
        ctx.machine.dispatchCyclesFor(t.kind);
    t.cost.flops = flops;
    t.cost.bytesRead = static_cast<double>(ctx.batch) *
        static_cast<double>(f * d) * 4.0;
    t.cost.bytesWritten = static_cast<double>(ctx.batch) *
        static_cast<double>(f * f) * 4.0;

    double ht = ctx.hyperthreading ? kHtFcPenalty : 1.0;
    t.seconds = (std::max(t.computeSeconds, t.memorySeconds) +
                 t.dispatchSeconds) * ht;
}

void
CpuBackend::timeActivation(TimingContext &ctx, int64_t elements,
                           OpTiming &t)
{
    t.kind = OpKind::Activation;
    double flops = static_cast<double>(elements);
    double bytes = flops * 4.0 * 2.0;
    t.computeSeconds = flops /
        (0.5 * ctx.machine.simd.peakFlopsPerCycle() *
         ctx.machine.cyclesPerSecond());
    t.memorySeconds = ctx.machine.streamSeconds(HitLevel::L1, bytes);
    t.dispatchSeconds = ctx.machine.dispatchSeconds(t.kind);
    t.instructions = vectorInstructions(flops, bytes,
                                        simdLanes(ctx.machine.simd.isa)) +
        ctx.machine.dispatchCyclesFor(t.kind);
    t.cost.flops = flops;
    t.cost.bytesRead = flops * 4.0;
    t.cost.bytesWritten = flops * 4.0;
    double ht = ctx.hyperthreading ? kHtSlsPenalty : 1.0;
    t.seconds = (std::max(t.computeSeconds, t.memorySeconds) +
                 t.dispatchSeconds) * ht;
}

} // namespace recperf
