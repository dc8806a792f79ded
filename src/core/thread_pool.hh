/**
 * @file
 * Shared worker pool and the parallelFor primitive behind every
 * parallel kernel (FC GEMM output tiles, SLS slot fan-out, BatchMatMul,
 * inter-op table scheduling).
 *
 * Design constraints, in order:
 *  1. Determinism — callers partition work so that each output element
 *     is produced by exactly one chunk with an unchanged reduction
 *     order; the pool itself never reorders arithmetic. Results are
 *     bitwise-identical at any thread count.
 *  2. Safe nesting — a parallelFor issued from inside a parallel
 *     region (pool worker or re-entrant caller) runs inline on the
 *     issuing thread, so ops can parallelize unconditionally and
 *     compose (e.g. BatchMatMul over batch calling gemmBt).
 *  3. Low overhead — one atomic fetch-add per chunk, caller
 *     participates as a worker, tiny ranges never touch the pool, and
 *     a region's bookkeeping is reused, so a steady-state parallelFor
 *     never touches the heap.
 */

#ifndef RECPERF_CORE_THREAD_POOL_HH
#define RECPERF_CORE_THREAD_POOL_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace recperf {

/**
 * Fixed-size pool of worker threads executing chunked index ranges.
 *
 * A pool of size N owns N-1 OS threads; the thread calling
 * parallelFor() acts as the Nth worker, so `ThreadPool(1)` spawns no
 * threads and always runs inline.
 */
class ThreadPool
{
  public:
    /** Spawn @p threads - 1 workers (clamped to [1, kMaxThreads]). */
    explicit ThreadPool(int threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Pool size including the calling thread. */
    int threadCount() const { return nthreads_; }

    /**
     * Run fn(chunk_begin, chunk_end) over [begin, end) split into
     * chunks of at least @p grain indices. Chunks are claimed with an
     * atomic counter in ascending order; each index is covered exactly
     * once. Blocks until every chunk has finished.
     *
     * The first exception thrown by @p fn is captured, remaining
     * unclaimed chunks are skipped, and the exception is rethrown on
     * the calling thread once the region has quiesced.
     *
     * Nested calls (from a pool worker or from @p fn itself) execute
     * the whole range inline on the calling thread.
     */
    void parallelFor(int64_t begin, int64_t end, int64_t grain,
                     const std::function<void(int64_t, int64_t)> &fn);

    /** Upper bound on configurable pool sizes. */
    static constexpr int kMaxThreads = 256;

  private:
    struct Region;

    void workerLoop();
    static void runChunks(Region &region);

    int nthreads_;
    std::mutex mu_;
    std::condition_variable work_cv_;
    uint64_t generation_ = 0;
    Region *region_ = nullptr; ///< the region workers join next
    /** Every region ever made, reused once idle (guarded by mu_). */
    std::vector<std::unique_ptr<Region>> regions_;
    bool shutdown_ = false;
    std::vector<std::thread> workers_;
};

/**
 * The process-wide pool used by all tensor ops. Created lazily on
 * first use with `RECPERF_THREADS` threads (falling back to
 * std::thread::hardware_concurrency when unset or 0).
 */
std::shared_ptr<ThreadPool> globalThreadPool();

/**
 * Replace the global pool with one of @p threads threads (0 restores
 * the environment/hardware default). In-flight parallelFor calls keep
 * the pool they started on; this is safe to call between kernels but
 * not concurrently with them from another thread.
 */
void setGlobalThreadCount(int threads);

/** Thread count of the current global pool (creates it if needed). */
int globalThreadCount();

/** True while the calling thread is inside a parallelFor region. */
bool inParallelRegion();

/**
 * Observability hook for executed pool chunks. The obs layer installs
 * this (core cannot link against it — the dependency points the other
 * way); when non-null, every executed chunk is bracketed with
 * steady-clock reads and reported as (lo, hi, t0, t1) on the executing
 * thread. Install nullptr to restore the untraced path, whose only cost
 * is one atomic load per chunk.
 */
using PoolChunkHook = void (*)(int64_t lo, int64_t hi,
                               std::chrono::steady_clock::time_point t0,
                               std::chrono::steady_clock::time_point t1);

void setPoolChunkHook(PoolChunkHook hook);

/** Convenience wrapper: globalThreadPool()->parallelFor(...). */
void parallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)> &fn);

} // namespace recperf

#endif // RECPERF_CORE_THREAD_POOL_HH
