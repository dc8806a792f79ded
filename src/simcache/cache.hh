/**
 * @file
 * A single set-associative cache with LRU replacement.
 *
 * This is the building block of the simulated Haswell/Broadwell/Skylake
 * memory hierarchies. It tracks tags only (no data): the functional
 * model results never depend on it, but hit/miss behaviour — and hence
 * the paper's MPKI and latency effects — does.
 */

#ifndef RECPERF_SIMCACHE_CACHE_HH
#define RECPERF_SIMCACHE_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace recperf {

/** Hit/miss and maintenance counters for one cache. */
struct CacheStats
{
    uint64_t accesses = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t backInvalidations = 0;

    double
    missRate() const
    {
        return accesses ? static_cast<double>(misses) /
            static_cast<double>(accesses) : 0.0;
    }

    void
    reset()
    {
        *this = CacheStats();
    }

    CacheStats &
    operator+=(const CacheStats &o)
    {
        accesses += o.accesses;
        hits += o.hits;
        misses += o.misses;
        evictions += o.evictions;
        backInvalidations += o.backInvalidations;
        return *this;
    }
};

/**
 * Core-presence mask of one line in a sharer-tracking cache: bit c is
 * set when core c may hold the line privately.
 */
using SharerMask = uint16_t;

/** Cores with an index past the mask width share the all-ones mask. */
constexpr uint32_t kSharerBits = 16;

/** The mask bit(s) standing for @p core. */
inline SharerMask
sharerBit(uint32_t core)
{
    return core < kSharerBits ? static_cast<SharerMask>(1u << core)
                              : static_cast<SharerMask>(~0u);
}

/**
 * Set-associative, LRU, tag-only cache model.
 *
 * Addresses are byte addresses; the cache operates on aligned lines of
 * lineBytes() granularity.
 *
 * The tag store is one zeroed allocation holding a block per set:
 * `u64` tags (line + 1, so zero means invalid), then `u16` LRU stamps,
 * the set's `u16` stamp clock and, on sharer-tracking caches, one
 * SharerMask per way. See DESIGN.md §18.
 */
class Cache
{
  public:
    /**
     * @param name label used in stats dumps, e.g. "L2".
     * @param size_bytes total capacity; must be a multiple of
     *        line_bytes * associativity.
     * @param associativity ways per set.
     * @param line_bytes line size (64 on all modeled machines).
     * @param track_sharers keep a SharerMask per line (inclusive LLC).
     */
    Cache(std::string name, uint64_t size_bytes, uint32_t associativity,
          uint32_t line_bytes = 64, bool track_sharers = false);
    ~Cache();

    Cache(const Cache &) = delete;
    Cache &operator=(const Cache &) = delete;

    const std::string &name() const { return name_; }
    uint64_t sizeBytes() const { return size_bytes_; }
    uint32_t associativity() const { return assoc_; }
    uint32_t lineBytes() const { return line_bytes_; }
    uint64_t numSets() const { return num_sets_; }

    /**
     * Look up a line; on hit, refresh its LRU position. Counts as an
     * access in the stats. Does NOT allocate on miss — allocation
     * decisions belong to the hierarchy (inclusive vs. exclusive).
     *
     * @return true on hit.
     */
    bool access(uint64_t addr) { return accessBy(addr, 0); }

    /** access() that also adds @p sharers to a hit line's mask. */
    bool accessBy(uint64_t addr, SharerMask sharers);

    /** Probe without touching LRU state or stats. */
    bool contains(uint64_t addr) const;

    /**
     * Insert a line, evicting the LRU line of the set if full.
     *
     * @return the byte address of the evicted line, if any.
     */
    std::optional<uint64_t> fill(uint64_t addr)
    {
        return fillBy(addr, 0, nullptr);
    }

    /**
     * fill() on a sharer-tracking cache: a newly placed line's mask
     * becomes @p sharers (a refreshed one gains them), and the evicted
     * line's mask is stored to @p victim_sharers when non-null.
     */
    std::optional<uint64_t> fillBy(uint64_t addr, SharerMask sharers,
                                   SharerMask *victim_sharers);

    /**
     * Add @p sharers to a resident line's mask without touching LRU
     * state or stats.
     *
     * @return true when the line was present.
     */
    bool addSharers(uint64_t addr, SharerMask sharers);

    /**
     * Remove a line if present (back-invalidation from an inclusive
     * outer level, or promotion out of an exclusive victim cache).
     *
     * @return true when the line was present.
     */
    bool invalidate(uint64_t addr);

    /**
     * Remove a line without charging a back-invalidation (used when an
     * exclusive LLC promotes a line up to a private L2 on hit).
     *
     * @return true when the line was present.
     */
    bool extract(uint64_t addr);

    /**
     * Host-only hint: pull the tag block of @p addr's set into the
     * host's caches. Changes no simulated state.
     */
    void
    hostPrefetch(uint64_t addr) const
    {
        const uint8_t *set = setBlock(lineAddr(addr));
        for (uint32_t off = 0; off < set_stride_; off += kHostLineBytes)
            __builtin_prefetch(set + off, 1);
    }

    /** Drop all lines; stats are preserved. */
    void flush();

    /** Number of currently valid lines. */
    uint64_t occupancy() const;

    /** Byte addresses of all resident lines (test/invariant hook). */
    std::vector<uint64_t> residentLines() const;

    CacheStats &stats() { return stats_; }
    const CacheStats &stats() const { return stats_; }

  private:
    static constexpr uint32_t kHostLineBytes = 64;

    uint64_t
    lineAddr(uint64_t addr) const
    {
        return line_shift_ >= 0 ? addr >> line_shift_ : addr / line_bytes_;
    }

    uint64_t
    setIndex(uint64_t line) const
    {
        if (sets_pow2_)
            return line & (num_sets_ - 1);
        // Lemire's fastmod: exact for every 64-bit line and set count.
        __uint128_t low = set_magic_ * line;
        __uint128_t hi = (low >> 64) * num_sets_;
        __uint128_t lo = (low & ~uint64_t{0}) * num_sets_;
        return static_cast<uint64_t>((hi + (lo >> 64)) >> 64);
    }

    uint8_t *
    setBlock(uint64_t line) const
    {
        return store_ + setIndex(line) * set_stride_;
    }

    uint64_t *
    tags(uint8_t *set) const
    {
        return reinterpret_cast<uint64_t *>(set);
    }

    uint16_t *
    stamps(uint8_t *set) const
    {
        return reinterpret_cast<uint16_t *>(set + stamps_off_);
    }

    uint16_t &
    clock(uint8_t *set) const
    {
        return *reinterpret_cast<uint16_t *>(set + clock_off_);
    }

    SharerMask *
    sharers(uint8_t *set) const
    {
        return reinterpret_cast<SharerMask *>(set + sharers_off_);
    }

    /** Way holding tag @p tag in @p set, or -1. */
    int32_t
    findWay(const uint8_t *set, uint64_t tag) const
    {
        const uint64_t *t = reinterpret_cast<const uint64_t *>(set);
        for (uint32_t w = 0; w < assoc_; ++w) {
            if (t[w] == tag)
                return static_cast<int32_t>(w);
        }
        return -1;
    }

    /** Hand out the set's next LRU stamp, renumbering on saturation. */
    uint16_t
    nextStamp(uint8_t *set)
    {
        uint16_t &now = clock(set);
        if (now == UINT16_MAX) [[unlikely]]
            renumberStamps(set);
        return ++now;
    }

    /** Restamp @p set's valid ways 1..k in LRU order; clock = k. */
    void renumberStamps(uint8_t *set);

    std::string name_;
    uint64_t size_bytes_;
    uint32_t assoc_;
    uint32_t line_bytes_;
    int32_t line_shift_ = -1;
    uint64_t num_sets_;
    bool sets_pow2_;
    __uint128_t set_magic_ = 0;
    bool track_sharers_;
    uint32_t stamps_off_;
    uint32_t clock_off_;
    uint32_t sharers_off_;
    uint32_t set_stride_;
    void *alloc_ = nullptr;
    uint8_t *store_ = nullptr;
    /** renumberStamps' way-order scratch, one slot per way, so a
     *  simulated access never allocates. */
    std::vector<uint32_t> order_;
    CacheStats stats_;
};

// The per-access operations are inline: the hierarchy calls them several
// times per simulated load.

inline bool
Cache::accessBy(uint64_t addr, SharerMask sharer_bits)
{
    ++stats_.accesses;
    uint64_t line = lineAddr(addr);
    uint8_t *set = setBlock(line);
    int32_t w = findWay(set, line + 1);
    if (w < 0) {
        ++stats_.misses;
        return false;
    }
    stamps(set)[w] = nextStamp(set);
    if (track_sharers_)
        sharers(set)[w] |= sharer_bits;
    ++stats_.hits;
    return true;
}

inline std::optional<uint64_t>
Cache::fillBy(uint64_t addr, SharerMask sharer_bits,
              SharerMask *victim_sharers)
{
    uint64_t line = lineAddr(addr);
    uint8_t *set = setBlock(line);
    uint64_t *t = tags(set);

    // One branch-free pass finds the line and the first invalid way.
    int32_t present = -1, w = -1;
    for (uint32_t i = assoc_; i-- > 0;) {
        present = t[i] == line + 1 ? static_cast<int32_t>(i) : present;
        w = t[i] == 0 ? static_cast<int32_t>(i) : w;
    }

    // Already present: refresh recency, nothing evicted.
    if (present >= 0) {
        stamps(set)[present] = nextStamp(set);
        if (track_sharers_)
            sharers(set)[present] |= sharer_bits;
        return std::nullopt;
    }

    // Prefer an invalid way; else evict the LRU one.
    std::optional<uint64_t> evicted;
    if (w < 0) {
        // Branch-free minimum: which way is oldest is unpredictable.
        const uint16_t *s = stamps(set);
        uint16_t oldest = s[0];
        w = 0;
        for (uint32_t i = 1; i < assoc_; ++i) {
            bool older = s[i] < oldest;
            oldest = older ? s[i] : oldest;
            w = older ? static_cast<int32_t>(i) : w;
        }
        evicted = (t[w] - 1) * line_bytes_;
        if (victim_sharers)
            *victim_sharers = track_sharers_ ? sharers(set)[w] : 0;
        ++stats_.evictions;
    }
    t[w] = line + 1;
    stamps(set)[w] = nextStamp(set);
    if (track_sharers_)
        sharers(set)[w] = sharer_bits;
    return evicted;
}

inline bool
Cache::extract(uint64_t addr)
{
    uint64_t line = lineAddr(addr);
    uint8_t *set = setBlock(line);
    int32_t w = findWay(set, line + 1);
    if (w < 0)
        return false;
    tags(set)[w] = 0;
    return true;
}

} // namespace recperf

#endif // RECPERF_SIMCACHE_CACHE_HH
