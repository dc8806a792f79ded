/**
 * @file
 * ISA-tier benchmark: the fixed kernel plan of each ISA tier on the
 * Table 1 shapes, the AVX2/AVX-512 crossover, and end-to-end eval.
 *
 * Every mode runs the fixed plan of one tier: "scalar" (the baseline),
 * each vector tier the host runs pinned ("avx2", "avx512"), and "auto"
 * (the best of those). Four suites, one BENCH_isa_tiers.json:
 *  - eval: RMC3 forward throughput, scalar vs auto, cold (the first
 *    forward on a cold cache installs every plan) vs warm (dispatch is
 *    one atomic load);
 *  - gemm: Table 1 FC shapes, GFLOP/s per mode;
 *  - sls: Table 1 embedding shapes, float and int8, Mlookups/s per
 *    mode;
 *  - crossover: batch sweep at fixed (n, k) with avx2 vs avx512
 *    pinned, the measured counterpart of SimdModel's predicted
 *    crossover (EXPERIMENTS.md cross-references Figures 8/10).
 *
 * Eval runs first, on the default pool. The three kernel suites then
 * run on a 1-thread pool, so a row measures one core's tier and not
 * how the pool's workers were scheduled. Every row is the median of
 * kRepeats timed repeats. The envelope stamps the host's steal
 * fraction over the run (from /proc/stat): rows measured under heavy
 * steal are suspect.
 *
 * Asserts the engine's two contracts: warm forwards install no plan
 * (the kernel cache's install count is unchanged across the warm
 * loop), and auto >= 1.2x scalar eval throughput whenever a vector
 * tier is available.
 *
 *   micro_isa_tiers [--quick] [--min-time 0.2] [--rows-cap 65536]
 *                   [--out file.json]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "core/args.hh"
#include "core/logging.hh"
#include "core/rng.hh"
#include "core/thread_pool.hh"
#include "machine/simd.hh"
#include "model/rec_model.hh"
#include "model/zoo.hh"
#include "ops/fully_connected.hh"
#include "ops/kernel_cache.hh"
#include "ops/microkernels.hh"
#include "ops/quantized_embedding.hh"
#include "ops/sparse_lengths_sum.hh"
#include "tensor/tensor.hh"

using namespace recperf;

namespace {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Timed repeats per row; the row reports their median. */
constexpr int kRepeats = 5;

/**
 * Seconds per call of fn: after a warm-up call, the iteration count
 * doubles until one repeat lasts min_time / kRepeats, and the median
 * of kRepeats such repeats is returned.
 */
template <typename Fn>
double
secondsPerIter(Fn fn, double min_time)
{
    fn(); // warm-up (and first-touch plan installs, outside the timing)
    const double per_repeat = min_time / kRepeats;
    int64_t iters = 1;
    auto timed = [&] {
        double start = now();
        for (int64_t i = 0; i < iters; ++i)
            fn();
        return now() - start;
    };
    while (timed() < per_repeat)
        iters *= 2;
    std::vector<double> samples;
    for (int r = 0; r < kRepeats; ++r)
        samples.push_back(timed() / static_cast<double>(iters));
    std::nth_element(samples.begin(), samples.begin() + kRepeats / 2,
                     samples.end());
    return samples[kRepeats / 2];
}

/** Host CPU time counters from the aggregate line of /proc/stat. */
struct CpuTimes
{
    double steal = 0.0;
    double total = 0.0;
    bool valid = false;
};

CpuTimes
readCpuTimes()
{
    // cpu  user nice system idle iowait irq softirq steal guest ...;
    // guest time is already counted in user, so total stops at steal.
    CpuTimes t;
    std::ifstream in("/proc/stat");
    std::string line, label;
    if (!std::getline(in, line))
        return t;
    std::istringstream fields(line);
    fields >> label;
    if (label != "cpu")
        return t;
    double v[8];
    for (double &x : v)
        if (!(fields >> x))
            return t;
    for (double x : v)
        t.total += x;
    t.steal = v[7];
    t.valid = true;
    return t;
}

/** Engine configurations the suites compare. */
struct EngineMode
{
    std::string name;
    IsaPolicy policy;
};

/** ISA tiers usable on this host *and* compiled into this binary. */
std::vector<KernelIsa>
usableTiers()
{
    std::vector<KernelIsa> tiers;
    for (int t = 0; t <= static_cast<int>(detectIsa()); ++t)
        if (microkernels::kernelsFor(static_cast<KernelIsa>(t)).available)
            tiers.push_back(static_cast<KernelIsa>(t));
    return tiers;
}

/** Each usable tier pinned (scalar first: the baseline), then auto. */
std::vector<EngineMode>
engineModes()
{
    std::vector<EngineMode> modes;
    for (KernelIsa isa : usableTiers())
        modes.push_back({kernelIsaName(isa), IsaPolicy{false, isa}});
    modes.push_back({"auto", IsaPolicy{}});
    return modes;
}

void
applyMode(const EngineMode &mode)
{
    // setPolicy clears the cache, so every mode starts cold and the
    // warm-up iteration inside secondsPerIter absorbs the installs.
    KernelCache::global().setPolicy(mode.policy);
}

struct GemmCase
{
    const char *name;
    int64_t m, n, k;
};

const GemmCase kGemmCases[] = {
    {"rmc1-bottom0-b256", 256, 128, 128},
    {"rmc1-top0-b256", 256, 128, 160},
    {"rmc3-bottom0-b64", 64, 2560, 2048},
    {"rmc3-bottom1-b64", 64, 256, 2560},
    {"rmc3-top0-b64", 64, 512, 256},
};

struct SlsCase
{
    const char *name;
    int64_t rows, dim, lookups, batch;
};

const SlsCase kSlsCases[] = {
    {"rmc1-table", 200'000, 32, 80, 64},
    {"rmc2-table", 2'000'000, 32, 80, 16},
    {"rmc3-table", 2'000'000, 32, 20, 64},
};

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("micro_isa_tiers",
                   "fixed-plan kernel engine per ISA tier vs scalar");
    args.addOption("min-time", "0.2", "seconds per measurement");
    args.addOption("rows-cap", "65536",
                   "max embedding rows per table to allocate");
    args.addOption("out", "", "write JSON here (default: stdout)");
    args.addFlag("quick", "reduced sweep for CI smoke runs");
    args.addFlag("help", "show this help");

    std::vector<std::string> raw(argv + 1, argv + argc);
    std::string error;
    if (!args.parse(raw, &error)) {
        std::fprintf(stderr, "error: %s\n%s", error.c_str(),
                     args.helpText().c_str());
        return 2;
    }
    if (args.flag("help")) {
        std::printf("%s", args.helpText().c_str());
        return 0;
    }

    const bool quick = args.flag("quick");
    double min_time = args.optionDouble("min-time");
    if (quick)
        min_time = std::min(min_time, 0.05);
    int64_t rows_cap = args.optionInt("rows-cap");
    Rng rng(7);

    bench::banner("micro_isa_tiers — fixed kernel plans per ISA tier");
    std::printf("detected ISA: %s\n", kernelIsaName(detectIsa()));

    const CpuTimes cpu_start = readCpuTimes();
    const int eval_threads = globalThreadCount();
    bench::JsonWriter json("micro_isa_tiers");
    json.machine().add("isa_detected", kernelIsaName(detectIsa()));
    json.config()
        .add("min_time_s", min_time)
        .add("rows_cap", static_cast<int64_t>(rows_cap))
        .add("quick", quick)
        .add("repeats", kRepeats)
        .add("kernel_threads", 1)
        .add("eval_threads", eval_threads);

    // ------------------------------------------------------- eval suite
    // End-to-end RMC3 forward on the default pool: the acceptance
    // anchor. Cold is the first forward on a cold kernel cache (it
    // installs every plan); warm is pure dispatch. It runs before the
    // kernel suites swap in a 1-thread pool: a 4-thread pool created
    // right after a long 1-thread phase sometimes ran its first second
    // of forwards at 1-thread speed on a shared 4-core host.
    bench::section(strprintf("RMC3 eval (end-to-end forward, %d threads)",
                             globalThreadCount()));
    double scalar_qps = 0.0, auto_qps = 0.0;
    double cold_s = 0.0, warm_s = 0.0;
    {
        ModelConfig cfg = rmc3Small().functionalScale(rows_cap);
        Rng model_rng(11);
        RecModel model(cfg, model_rng);
        const int64_t batch = quick ? 16 : 64;
        ModelInput input = model.randomInput(batch, model_rng);

        for (const EngineMode &mode :
             {EngineMode{"scalar", IsaPolicy{false, KernelIsa::Scalar}},
              EngineMode{"auto", IsaPolicy{}}}) {
            applyMode(mode);
            double cold = now();
            (void)model.forward(input);
            cold = now() - cold;
            const uint64_t installed = KernelCache::global().tuneCount();
            double warm = secondsPerIter(
                [&] { (void)model.forward(input); }, min_time);
            // Contract: the cold forward installed every plan it needs,
            // so warm forwards are pure dispatch and install none.
            const uint64_t warm_installs =
                KernelCache::global().tuneCount() - installed;
            RP_ASSERT(installed > 0 && warm_installs == 0,
                      "%s: cold forward installed %llu plan(s), warm "
                      "forwards %llu more", mode.name.c_str(),
                      static_cast<unsigned long long>(installed),
                      static_cast<unsigned long long>(warm_installs));
            double qps = static_cast<double>(batch) / warm;
            std::printf("  %-15s cold %8.3f ms  warm %8.3f ms  %8.1f "
                        "samples/s\n", mode.name.c_str(), cold * 1e3,
                        warm * 1e3, qps);
            json.newResult()
                .add("suite", "eval")
                .add("name", "rmc3-small")
                .add("mode", mode.name)
                .add("batch", batch)
                .add("cold_seconds", cold)
                .add("warm_seconds_per_iter", warm)
                .add("samples_per_s", qps);
            if (mode.policy.autoSelect) {
                auto_qps = qps;
                cold_s = cold;
                warm_s = warm;
            } else {
                scalar_qps = qps;
            }
        }
        std::printf("  auto vs scalar: %.2fx\n", auto_qps / scalar_qps);
        json.newResult()
            .add("suite", "eval")
            .add("name", "rmc3-small")
            .add("mode", "summary")
            .add("auto_speedup_vs_scalar", auto_qps / scalar_qps)
            .add("warm_over_cold", cold_s / warm_s);
    }

    // Contract: on a vector-capable host auto must clear the 1.2x bar
    // over scalar.
    if (microkernels::kernelsFor(KernelIsa::Avx2).available &&
        detectIsa() >= KernelIsa::Avx2) {
        RP_ASSERT(auto_qps >= 1.2 * scalar_qps,
                  "auto eval %.1f samples/s < 1.2x scalar %.1f samples/s",
                  auto_qps, scalar_qps);
    }

    // The kernel suites time one core's tier.
    const std::vector<EngineMode> modes = engineModes();
    setGlobalThreadCount(1);

    // ------------------------------------------------------- GEMM suite
    bench::section("GEMM (C[m,n] = A[m,k] * B[n,k]^T)");
    for (const GemmCase &gc : kGemmCases) {
        if (quick && gc.k > 1024)
            continue; // the wide RMC3 shapes dominate quick runtime
        Tensor a({gc.m, gc.k}), b({gc.n, gc.k}), c({gc.m, gc.n});
        a.fillUniform(rng, -1.0f, 1.0f);
        b.fillUniform(rng, -1.0f, 1.0f);
        double flops = 2.0 * static_cast<double>(gc.m) *
            static_cast<double>(gc.n) * static_cast<double>(gc.k);
        std::printf("%-20s m=%-4lld n=%-4lld k=%-4lld\n", gc.name,
                    static_cast<long long>(gc.m),
                    static_cast<long long>(gc.n),
                    static_cast<long long>(gc.k));
        double baseline = 0.0;
        for (const EngineMode &mode : modes) {
            applyMode(mode);
            double s = secondsPerIter(
                [&] {
                    gemmBt(a.data(), b.data(), c.data(), gc.m, gc.n,
                           gc.k, /*accumulate=*/false);
                },
                min_time);
            if (baseline == 0.0)
                baseline = s;
            std::printf("  %-15s %8.2f GFLOP/s  %5.2fx\n",
                        mode.name.c_str(), flops / s / 1e9, baseline / s);
            json.newResult()
                .add("suite", "gemm")
                .add("name", gc.name)
                .add("mode", mode.name)
                .add("m", gc.m)
                .add("n", gc.n)
                .add("k", gc.k)
                .add("seconds_per_iter", s)
                .add("gflops", flops / s / 1e9)
                .add("speedup_vs_scalar", baseline / s);
        }
    }

    // -------------------------------------------------------- SLS suite
    bench::section("SparseLengthsSum (float + int8)");
    for (const SlsCase &sc : kSlsCases) {
        int64_t rows = std::min(sc.rows, rows_cap);
        EmbeddingTable table(rows, sc.dim, rng);
        QuantizedEmbeddingTable qtable(table);
        std::vector<int64_t> ids;
        std::vector<int64_t> lengths(static_cast<size_t>(sc.batch),
                                     sc.lookups);
        for (int64_t i = 0; i < sc.batch * sc.lookups; ++i)
            ids.push_back(static_cast<int64_t>(
                rng.nextBelow(static_cast<uint64_t>(rows))));
        double lookups_per_iter =
            static_cast<double>(sc.batch * sc.lookups);
        std::printf("%-20s %lld rows, dim %lld, %lld lookups x batch "
                    "%lld\n", sc.name, static_cast<long long>(rows),
                    static_cast<long long>(sc.dim),
                    static_cast<long long>(sc.lookups),
                    static_cast<long long>(sc.batch));
        for (bool quantized : {false, true}) {
            for (const EngineMode &mode : modes) {
                applyMode(mode);
                double s = secondsPerIter(
                    [&] {
                        if (quantized)
                            (void)qtable.forward(ids, lengths,
                                                 SlsReduction::Sum);
                        else
                            (void)table.forward(ids, lengths,
                                                SlsReduction::Sum);
                    },
                    min_time);
                std::printf("  %-5s %-15s %8.2f Mlookups/s\n",
                            quantized ? "int8" : "fp32", mode.name.c_str(),
                            lookups_per_iter / s / 1e6);
                json.newResult()
                    .add("suite", "sls")
                    .add("name", sc.name)
                    .add("mode", mode.name)
                    .add("quantized", quantized)
                    .add("rows", rows)
                    .add("dim", sc.dim)
                    .add("lookups", sc.lookups)
                    .add("batch", sc.batch)
                    .add("seconds_per_iter", s)
                    .add("mlookups_per_s", lookups_per_iter / s / 1e6);
            }
        }
    }

    // -------------------------------------------------- crossover suite
    // Fixed FC layer (n, k) = (256, 256), batch swept: where does
    // avx512 overtake avx2? SimdModel predicts the frequency-license
    // crossover; this measures it on the host (EXPERIMENTS.md).
    bench::section("ISA crossover (n=256, k=256, batch sweep)");
    {
        const int64_t kN = 256, kK = 256;
        std::vector<int64_t> batches =
            quick ? std::vector<int64_t>{1, 16, 256}
                  : std::vector<int64_t>{1, 2, 4, 8, 16, 32, 64, 128,
                                         256};
        Tensor b({kN, kK});
        b.fillUniform(rng, -1.0f, 1.0f);
        for (int64_t m : batches) {
            Tensor a({m, kK}), c({m, kN});
            a.fillUniform(rng, -1.0f, 1.0f);
            double flops = 2.0 * static_cast<double>(m * kN * kK);
            std::printf("  batch %-4lld:", static_cast<long long>(m));
            for (KernelIsa isa : usableTiers()) {
                applyMode({kernelIsaName(isa), IsaPolicy{false, isa}});
                double s = secondsPerIter(
                    [&] {
                        gemmBt(a.data(), b.data(), c.data(), m, kN, kK,
                               false);
                    },
                    min_time);
                std::printf("  %s %7.2f GF/s", kernelIsaName(isa),
                            flops / s / 1e9);
                json.newResult()
                    .add("suite", "crossover")
                    .add("isa", kernelIsaName(isa))
                    .add("m", m)
                    .add("n", kN)
                    .add("k", kK)
                    .add("seconds_per_iter", s)
                    .add("gflops", flops / s / 1e9);
            }
            std::printf("\n");
        }
    }

    // Leave the global cache and pool in their default state for good
    // hygiene.
    KernelCache::global().setPolicy(IsaPolicy{});
    setGlobalThreadCount(eval_threads);

    const CpuTimes cpu_end = readCpuTimes();
    if (cpu_start.valid && cpu_end.valid &&
        cpu_end.total > cpu_start.total) {
        const double steal = (cpu_end.steal - cpu_start.steal) /
            (cpu_end.total - cpu_start.total);
        std::printf("\nhost steal over the run: %.1f%%\n", steal * 100.0);
        json.machine().add("steal_fraction", steal);
    }

    RP_ASSERT(json.writeOrPrint(args.option("out")), "JSON write failed");
    return 0;
}
