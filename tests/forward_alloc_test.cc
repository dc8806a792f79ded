/**
 * @file
 * Heap traffic of the steady-state functional forward. This binary
 * replaces the global operator new and interposes aligned_alloc (the
 * allocator behind every Tensor and AlignedBuffer), so it counts every
 * allocation a RecModel::forward makes. Once warmed up, a forward plans
 * nothing anew: the activation arena, the SLS offsets and the pool's
 * region bookkeeping are all reused, and only the returned [batch, 1]
 * tensor (its shape vector and its storage) is allocated.
 *
 * The virtual-time plane goes further: a warm ModelTimer run allocates
 * nothing at all, because a sharded inference runs its timers on pool
 * workers, where every allocation can grow a per-thread malloc arena.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/rng.hh"
#include "core/thread_pool.hh"
#include "machine/machine_spec.hh"
#include "model/rec_model.hh"
#include "model/zoo.hh"
#include "timing/model_timer.hh"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocs{0};

void
record()
{
    if (g_counting.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
}

void *
alignedRaw(std::size_t alignment, std::size_t size)
{
    if (alignment < sizeof(void *))
        alignment = sizeof(void *);
    void *p = nullptr;
    return posix_memalign(&p, alignment, size ? size : 1) == 0 ? p
                                                               : nullptr;
}

} // namespace

extern "C" void *
aligned_alloc(std::size_t alignment, std::size_t size) noexcept
{
    record();
    return alignedRaw(alignment, size);
}

// The array and nothrow forms of new call these by default.
void *
operator new(std::size_t size)
{
    record();
    void *p = std::malloc(size ? size : 1);
    if (!p)
        throw std::bad_alloc();
    return p;
}

void *
operator new(std::size_t size, std::align_val_t al)
{
    record();
    void *p = alignedRaw(static_cast<std::size_t>(al), size);
    if (!p)
        throw std::bad_alloc();
    return p;
}

// These deletes free what the replacements above took from malloc and
// posix_memalign; GCC cannot see that pairing through a replaced new.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }

void
operator delete(void *p, std::size_t, std::align_val_t al) noexcept
{
    ::operator delete(p, al);
}

namespace recperf {
namespace {

TEST(ForwardAllocs, Rmc3Batch64SteadyStateAllocatesOnlyTheOutput)
{
    Rng rng(5);
    RecModel model(rmc3Small().functionalScale(), rng);
    const ModelInput input = model.randomInput(64, rng);
    for (int i = 0; i < 3; ++i) // first touch: kernel plan installs, arena
        (void)model.forward(input);

    constexpr int kForwards = 10;
    g_allocs.store(0);
    g_counting.store(true);
    for (int i = 0; i < kForwards; ++i)
        (void)model.forward(input);
    g_counting.store(false);
    const double per_forward =
        static_cast<double>(g_allocs.load()) / kForwards;
    EXPECT_LE(per_forward, 4.0);
}

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

/** Heap allocations made by @p runs calls of @p fn. */
template <typename Fn>
uint64_t
allocsOver(int runs, Fn fn)
{
    g_allocs.store(0);
    g_counting.store(true);
    for (int i = 0; i < runs; ++i)
        fn();
    g_counting.store(false);
    return g_allocs.load();
}

TEST(TimerAllocs, WarmRunAllocatesNothing)
{
    for (BackendKind kind : {BackendKind::Cpu, BackendKind::Nmp}) {
        SCOPED_TRACE(backendKindName(kind));
        TimerOptions opts;
        opts.batch = 16;
        opts.backend.kind = kind;
        opts.backend.nmp.placement = NmpPlacement::All;
        ModelTimer timer(broadwell(), rmc2Small(), opts);
        (void)timer.run();
        EXPECT_EQ(allocsOver(10, [&] { (void)timer.run(); }), 0u);
    }
}

TEST(TimerAllocs, ConcurrentFanOutAllocatesNothing)
{
    // The sharded fan-out's shape: one timer per shard plus the
    // aggregator, run at once on a multi-thread pool.
    ScopedThreads threads(4);
    TimerOptions opts;
    opts.batch = 16;
    std::vector<std::unique_ptr<ModelTimer>> owned;
    std::vector<ModelTimer *> fanout;
    for (uint64_t s = 0; s < 5; ++s) {
        opts.seed = 42 + s;
        owned.push_back(
            std::make_unique<ModelTimer>(broadwell(), rmc1Small(), opts));
        fanout.push_back(owned.back().get());
    }
    ModelTimer::runAll(fanout); // warms the pool's region bookkeeping
    EXPECT_EQ(allocsOver(10, [&] { ModelTimer::runAll(fanout); }), 0u);
}

} // namespace
} // namespace recperf
