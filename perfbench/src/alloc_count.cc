#include "alloc_count.hh"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

std::atomic<bool> g_on{false};
std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_bytes{0};

void
record(std::size_t size)
{
    if (g_on.load(std::memory_order_relaxed)) {
        g_allocs.fetch_add(1, std::memory_order_relaxed);
        g_bytes.fetch_add(size, std::memory_order_relaxed);
    }
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

void *
newRaw(std::size_t size)
{
    record(size);
    void *p = std::malloc(size ? size : 1);
    if (!p)
        throw std::bad_alloc();
    return p;
}

void *
newAligned(std::size_t size, std::align_val_t al)
{
    record(size);
    void *p = alignedRaw(static_cast<std::size_t>(al), size);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

void
setAllocCounting(bool on)
{
    g_on.store(on, std::memory_order_relaxed);
}

AllocCounts
allocCounts()
{
    return {g_allocs.load(std::memory_order_relaxed),
            g_bytes.load(std::memory_order_relaxed)};
}

} // namespace perfbench

using perfbench::newAligned;
using perfbench::newRaw;

extern "C" void *
aligned_alloc(std::size_t alignment, std::size_t size) noexcept
{
    perfbench::record(size);
    return perfbench::alignedRaw(alignment, size);
}

// The array and nothrow forms of new and delete call these by default.
void *operator new(std::size_t size) { return newRaw(size); }

void *
operator new(std::size_t size, std::align_val_t al)
{
    return newAligned(size, al);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
