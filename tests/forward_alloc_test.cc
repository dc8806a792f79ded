/**
 * @file
 * Heap traffic of the steady-state functional forward. This binary
 * replaces the global operator new and interposes aligned_alloc (the
 * allocator behind every Tensor and AlignedBuffer), so it counts every
 * allocation a RecModel::forward makes. Once warmed up, a forward plans
 * nothing anew: the activation arena, the SLS offsets and the pool's
 * region bookkeeping are all reused, and only the returned [batch, 1]
 * tensor (its shape vector and its storage) is allocated.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/rng.hh"
#include "model/rec_model.hh"
#include "model/zoo.hh"

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

} // namespace
} // namespace recperf
