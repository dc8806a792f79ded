/**
 * @file
 * Backend-parity suite for the pluggable ComputeBackend API.
 *
 * The refactor's contract (DESIGN.md §16): CpuBackend is the
 * pre-backend code moved verbatim, so the default path must stay
 * bitwise-identical — both the functional plane (eval checksums, here
 * as golden FNV-1a constants at the pinned scalar tier) and the timing
 * plane (default-constructed BackendConfig vs explicit cpu). The
 * functional kernels take no backend, so timing a model under the NMP
 * engine leaves every functional output bit-for-bit unchanged; NMP
 * differs only in the cost model, where it must actually pay off on
 * the embedding-bound models.
 *
 * The golden checksums reproduce `recperf eval --model rmcX --isa
 * <tier>` (rows capped at 4096, batch 16 or 64, seed 42) for every tier
 * the host can run; a tier its CPUID lacks is skipped. CI runs this
 * binary under RECPERF_THREADS=1 and =4, and the batch-64 anchors pin
 * 1 and 4 threads themselves, so the constants are a cross-thread-count
 * determinism anchor.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "backend/compute_backend.hh"
#include "backend/nmp_backend.hh"
#include "core/rng.hh"
#include "core/thread_pool.hh"
#include "machine/machine_spec.hh"
#include "model/rec_model.hh"
#include "model/zoo.hh"
#include "ops/kernel_cache.hh"
#include "ops/microkernels.hh"
#include "ops/sparse_lengths_sum.hh"
#include "timing/model_timer.hh"

namespace recperf {
namespace {

/** Pin the kernel cache to one tier; restore the policy after. */
class ScopedIsa
{
  public:
    explicit ScopedIsa(KernelIsa isa) : saved_(KernelCache::global().policy())
    {
        KernelCache::global().setPolicy(IsaPolicy{false, isa});
    }
    ~ScopedIsa() { KernelCache::global().setPolicy(saved_); }

  private:
    IsaPolicy saved_;
};

/** Pin the kernel cache to the scalar tier; restore it after. */
class ScopedScalarIsa : public ScopedIsa
{
  public:
    ScopedScalarIsa() : ScopedIsa(KernelIsa::Scalar) {}
};

/** Restore the pool size after a test that changes it. */
class ScopedThreads
{
  public:
    explicit ScopedThreads(int threads) : saved_(globalThreadCount())
    {
        setGlobalThreadCount(threads);
    }
    ~ScopedThreads() { setGlobalThreadCount(saved_); }

  private:
    int saved_;
};

/** FNV-1a over a tensor's bytes — the eval checksum, verbatim. */
uint64_t
fnv1a(const Tensor &t)
{
    const auto *bytes = reinterpret_cast<const unsigned char *>(t.data());
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (size_t i = 0; i < static_cast<size_t>(t.size()) * sizeof(float);
         ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/** The `recperf eval` recipe: capped model, seeded weights and input. */
uint64_t
evalChecksum(const ModelConfig &full, int64_t batch = 16)
{
    ModelConfig cfg = full.functionalScale(4096);
    Rng rng(42);
    RecModel model(cfg, rng);
    ModelInput input = model.randomInput(batch, rng);
    return fnv1a(model.forward(input));
}

/** True when this host can run @p isa and this binary carries it. */
bool
isaUsable(KernelIsa isa)
{
    return isa <= detectIsa() && microkernels::kernelsFor(isa).available;
}

ModelTiming
timeWith(const ModelConfig &cfg, const BackendConfig &backend,
         int64_t batch = 16)
{
    TimerOptions topts;
    topts.batch = batch;
    topts.backend = backend;
    ModelTimer timer(broadwell(), cfg, topts);
    return timer.steadyState(/*warmup_iters=*/2, /*measure_iters=*/5);
}

// ---------------------------------------------------------------------
// Functional plane: bitwise identity.

TEST(BackendParity, CpuGoldenChecksumsScalar)
{
    // Golden constants recorded from the pre-refactor binary
    // (`eval --model rmcX --isa scalar`). Any change to the kernel hot
    // path that lands here is a silent numerics break.
    ScopedScalarIsa scalar;
    EXPECT_EQ(evalChecksum(rmc1Small()), 0xe71e7fb4d9ae888dULL);
    EXPECT_EQ(evalChecksum(rmc2Small()), 0x48241e8356dd7045ULL);
    EXPECT_EQ(evalChecksum(rmc3Small()), 0x259a7fa40b909f97ULL);
}

/**
 * `eval --model rmc3 --batch 64 --isa <tier>` at RECPERF_THREADS=1 and
 * 4: batch 64 fills whole GEMM row tiles and splits the task grid
 * across threads, so these anchor the parallel path.
 */
void
expectRmc3Batch64Checksum(uint64_t want)
{
    for (int threads : {1, 4}) {
        ScopedThreads pool(threads);
        EXPECT_EQ(evalChecksum(rmc3Small(), 64), want)
            << "at " << threads << " threads";
    }
}

TEST(BackendParity, CpuGoldenChecksumsScalarBatch64)
{
    ScopedScalarIsa scalar;
    expectRmc3Batch64Checksum(0xd3566447b016447cULL);
}

// Each vector tier has its own fixed accumulation pattern, hence its
// own bits; a tier this host's CPUID lacks is skipped.

TEST(BackendParity, CpuGoldenChecksumsAvx2)
{
    if (!isaUsable(KernelIsa::Avx2))
        GTEST_SKIP() << "avx2 not available on this host";
    ScopedIsa pinned(KernelIsa::Avx2);
    EXPECT_EQ(evalChecksum(rmc3Small()), 0x3d45c0b88d5f3383ULL);
    expectRmc3Batch64Checksum(0xaa2a4ae35593f582ULL);
}

TEST(BackendParity, CpuGoldenChecksumsAvx512)
{
    if (!isaUsable(KernelIsa::Avx512))
        GTEST_SKIP() << "avx512 not available on this host";
    ScopedIsa pinned(KernelIsa::Avx512);
    EXPECT_EQ(evalChecksum(rmc3Small()), 0x75210fb95032d11aULL);
    expectRmc3Batch64Checksum(0x67600a8e39383cefULL);
}

TEST(BackendParity, NmpMatchesCpuChecksumsScalar)
{
    // The NMP backend re-models cost, not math: timing a model under
    // it leaves the functional plane on the CPU golden checksums.
    ScopedScalarIsa scalar;
    BackendConfig nmp;
    nmp.kind = BackendKind::Nmp;
    (void)timeWith(rmc2Small(), nmp);
    EXPECT_EQ(evalChecksum(rmc1Small()), 0xe71e7fb4d9ae888dULL);
    EXPECT_EQ(evalChecksum(rmc2Small()), 0x48241e8356dd7045ULL);
}

TEST(BackendParity, SlsOutputBitIdenticalAcrossBackends)
{
    Rng rng(11);
    EmbeddingTable table(512, 48, rng);
    std::vector<int64_t> ids, lengths;
    Rng id_rng(5);
    for (int slot = 0; slot < 24; ++slot) {
        lengths.push_back(8);
        for (int j = 0; j < 8; ++j)
            ids.push_back(static_cast<int64_t>(id_rng.nextBelow(512)));
    }

    // Every table offloads, so the NMP engine's gather model runs;
    // the real gather before and after must agree bit for bit.
    ScopedScalarIsa scalar;
    Tensor cpu_out = table.forward(ids, lengths);
    BackendConfig nmp;
    nmp.kind = BackendKind::Nmp;
    nmp.nmp.placement = NmpPlacement::All;
    (void)timeWith(rmc2Small(), nmp);
    Tensor nmp_out = table.forward(ids, lengths);
    ASSERT_EQ(cpu_out.shape(), nmp_out.shape());
    EXPECT_EQ(std::memcmp(cpu_out.data(), nmp_out.data(),
                          static_cast<size_t>(cpu_out.size()) *
                              sizeof(float)),
              0);
}

// ---------------------------------------------------------------------
// Timing plane: default == explicit cpu, NMP pays off where it should.

TEST(BackendParity, DefaultTimingIsExplicitCpuBitwise)
{
    ModelConfig cfg = rmc2Small();
    BackendConfig cpu;
    cpu.kind = BackendKind::Cpu;
    ModelTiming a = timeWith(cfg, BackendConfig{});
    ModelTiming b = timeWith(cfg, cpu);
    ASSERT_EQ(a.ops.size(), b.ops.size());
    for (size_t i = 0; i < a.ops.size(); ++i) {
        EXPECT_EQ(a.ops[i].name, b.ops[i].name);
        EXPECT_EQ(a.ops[i].seconds, b.ops[i].seconds) << a.ops[i].name;
        EXPECT_EQ(a.ops[i].dramLines, b.ops[i].dramLines);
        EXPECT_EQ(a.ops[i].instructions, b.ops[i].instructions);
        EXPECT_EQ(a.ops[i].offloadSeconds, 0.0);
        EXPECT_EQ(a.ops[i].transferBytes, 0u);
    }
}

TEST(BackendParity, NmpAtLeastTwiceAsFastOnRmc2)
{
    BackendConfig nmp;
    nmp.kind = BackendKind::Nmp;
    ModelTiming cpu = timeWith(rmc2Small(), BackendConfig{});
    ModelTiming pim = timeWith(rmc2Small(), nmp);
    EXPECT_GE(cpu.totalSeconds() / pim.totalSeconds(), 2.0);

    // The offloaded gather accounts its engine time and link traffic
    // and leaves the host DRAM roof (no dramLines).
    double offload = 0.0;
    uint64_t transfer = 0, sls_dram = 0;
    for (const OpTiming &op : pim.ops) {
        offload += op.offloadSeconds;
        transfer += op.transferBytes;
        if (op.kind == OpKind::SLS)
            sls_dram += op.dramLines;
    }
    EXPECT_GT(offload, 0.0);
    EXPECT_GT(transfer, 0u);
    EXPECT_EQ(sls_dram, 0u);
}

TEST(BackendParity, NmpPlacementNoneIsCpuTiming)
{
    BackendConfig nmp;
    nmp.kind = BackendKind::Nmp;
    nmp.nmp.placement = NmpPlacement::None;
    ModelTiming cpu = timeWith(rmc2Small(), BackendConfig{});
    ModelTiming host = timeWith(rmc2Small(), nmp);
    ASSERT_EQ(cpu.ops.size(), host.ops.size());
    for (size_t i = 0; i < cpu.ops.size(); ++i)
        EXPECT_EQ(cpu.ops[i].seconds, host.ops[i].seconds)
            << cpu.ops[i].name;
}

// ---------------------------------------------------------------------
// Placement policy and spec validation.

TEST(NmpPlacement, AutoPolicyBoundaries)
{
    NmpConfig config; // min 1 MB, 0.5x LLC share
    const double llc = 32.0 * 1024 * 1024;

    // Forced modes ignore size entirely.
    config.placement = NmpPlacement::All;
    EXPECT_TRUE(nmpTableOffloaded(config, 1, llc));
    config.placement = NmpPlacement::None;
    EXPECT_FALSE(nmpTableOffloaded(config, 1ull << 40, llc));

    config.placement = NmpPlacement::Auto;
    // Below the absolute floor: host, even though it dwarfs the LLC.
    EXPECT_FALSE(nmpTableOffloaded(config, (1ull << 20) - 1, 1024.0));
    // Above the floor but cache-fixable (<= 0.5x LLC share): host.
    EXPECT_FALSE(nmpTableOffloaded(
        config, static_cast<uint64_t>(llc * 0.5), llc));
    // Above both: offload.
    EXPECT_TRUE(nmpTableOffloaded(
        config, static_cast<uint64_t>(llc * 0.5) + 1, llc));
}

TEST(NmpConfigValidate, RejectsBadKnobs)
{
    EXPECT_EQ(NmpConfig{}.validate(), "");

    NmpConfig c;
    c.ranks = 0;
    EXPECT_NE(c.validate(), "");
    c = NmpConfig{};
    c.rankGBps = 0.0;
    EXPECT_NE(c.validate(), "");
    c = NmpConfig{};
    c.linkGBps = -1.0;
    EXPECT_NE(c.validate(), "");
    c = NmpConfig{};
    c.hostLlcFraction = 1.5;
    EXPECT_NE(c.validate(), "");
}

TEST(BackendSpec, ParsesAndValidatesAsOneUnit)
{
    BackendConfig out;
    // An empty name means the default: cpu.
    EXPECT_EQ(backendConfigFromSpec("", &out), "");
    EXPECT_EQ(out.kind, BackendKind::Cpu);

    EXPECT_EQ(backendConfigFromSpec("nmp", &out), "");
    EXPECT_EQ(out.kind, BackendKind::Nmp);

    std::string err = backendConfigFromSpec("bogus", &out);
    EXPECT_NE(err.find("unknown backend"), std::string::npos) << err;
}

} // namespace
} // namespace recperf
