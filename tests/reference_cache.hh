/**
 * @file
 * Obviously-correct executable references for the cache simulator: a
 * set-associative LRU cache kept as one list per set, and a three-level
 * hierarchy built from it whose back-invalidation probes every core.
 * The property tests drive these and the real models with the same
 * random traffic and require identical behaviour.
 */

#ifndef RECPERF_TESTS_REFERENCE_CACHE_HH
#define RECPERF_TESTS_REFERENCE_CACHE_HH

#include <algorithm>
#include <list>
#include <optional>
#include <vector>

#include "simcache/hierarchy.hh"

namespace recperf {

/** Reference cache: one LRU list per set, most recent at the back. */
class ReferenceCache
{
  public:
    ReferenceCache(uint64_t size_bytes, uint32_t assoc,
                   uint32_t line_bytes = 64)
        : assoc_(assoc), line_bytes_(line_bytes),
          sets_(size_bytes / line_bytes / assoc)
    {
    }

    bool
    access(uint64_t addr)
    {
        ++stats_.accesses;
        auto &set = setFor(addr);
        uint64_t line = addr / line_bytes_;
        auto it = std::find(set.begin(), set.end(), line);
        if (it == set.end()) {
            ++stats_.misses;
            return false;
        }
        ++stats_.hits;
        set.erase(it);
        set.push_back(line);
        return true;
    }

    std::optional<uint64_t>
    fill(uint64_t addr)
    {
        auto &set = setFor(addr);
        uint64_t line = addr / line_bytes_;
        auto it = std::find(set.begin(), set.end(), line);
        if (it != set.end()) {
            set.erase(it);
            set.push_back(line);
            return std::nullopt;
        }
        std::optional<uint64_t> evicted;
        if (set.size() == assoc_) {
            evicted = set.front() * line_bytes_;
            set.pop_front();
            ++stats_.evictions;
        }
        set.push_back(line);
        return evicted;
    }

    bool
    invalidate(uint64_t addr)
    {
        if (!extract(addr))
            return false;
        ++stats_.backInvalidations;
        return true;
    }

    bool
    extract(uint64_t addr)
    {
        auto &set = setFor(addr);
        auto it = std::find(set.begin(), set.end(), addr / line_bytes_);
        if (it == set.end())
            return false;
        set.erase(it);
        return true;
    }

    bool
    contains(uint64_t addr) const
    {
        const auto &set = sets_[addr / line_bytes_ % sets_.size()];
        return std::find(set.begin(), set.end(), addr / line_bytes_) !=
            set.end();
    }

    uint64_t
    occupancy() const
    {
        uint64_t n = 0;
        for (const auto &set : sets_)
            n += set.size();
        return n;
    }

    /** Byte addresses of all resident lines, sorted. */
    std::vector<uint64_t>
    residentLines() const
    {
        std::vector<uint64_t> lines;
        for (const auto &set : sets_) {
            for (uint64_t line : set)
                lines.push_back(line * line_bytes_);
        }
        std::sort(lines.begin(), lines.end());
        return lines;
    }

    const CacheStats &stats() const { return stats_; }

  private:
    std::list<uint64_t> &
    setFor(uint64_t addr)
    {
        return sets_[addr / line_bytes_ % sets_.size()];
    }

    uint32_t assoc_;
    uint32_t line_bytes_;
    std::vector<std::list<uint64_t>> sets_;
    CacheStats stats_;
};

/**
 * Reference hierarchy with CacheHierarchy's fill and eviction rules,
 * minus every shortcut: an inclusive LLC eviction probes the L2 and the
 * L1 of every core.
 */
class ReferenceHierarchy
{
  public:
    ReferenceHierarchy(uint32_t cores, const LevelConfig &l1,
                       const LevelConfig &l2, const LevelConfig &l3,
                       InclusionPolicy policy, const PrefetchConfig &pf)
        : policy_(policy), prefetch_(pf),
          l3_(l3.sizeBytes, l3.associativity)
    {
        for (uint32_t c = 0; c < cores; ++c) {
            l1s_.emplace_back(l1.sizeBytes, l1.associativity);
            l2s_.emplace_back(l2.sizeBytes, l2.associativity);
        }
    }

    HitLevel
    access(uint32_t core, uint64_t addr)
    {
        if (l1s_[core].access(addr))
            return HitLevel::L1;
        if (l2s_[core].access(addr)) {
            l1s_[core].fill(addr);
            return HitLevel::L2;
        }
        if (l3_.access(addr)) {
            if (policy_ == InclusionPolicy::Exclusive)
                l3_.extract(addr);
            fillPrivate(core, addr);
            return HitLevel::L3;
        }
        if (policy_ == InclusionPolicy::Inclusive) {
            if (auto victim = l3_.fill(addr))
                backInvalidate(*victim);
        }
        fillPrivate(core, addr);
        if (prefetch_.nextLine) {
            for (uint32_t d = 1; d <= prefetch_.degree; ++d)
                prefetch(core, addr + d * 64);
        }
        return HitLevel::Memory;
    }

    const ReferenceCache &l1(uint32_t core) const { return l1s_[core]; }
    const ReferenceCache &l2(uint32_t core) const { return l2s_[core]; }
    const ReferenceCache &l3() const { return l3_; }
    uint64_t prefetchedLines() const { return prefetched_lines_; }

  private:
    void
    prefetch(uint32_t core, uint64_t next)
    {
        if (l2s_[core].contains(next) || l1s_[core].contains(next))
            return;
        ++prefetched_lines_;
        if (policy_ == InclusionPolicy::Inclusive) {
            if (!l3_.contains(next)) {
                if (auto victim = l3_.fill(next))
                    backInvalidate(*victim);
            }
        } else {
            l3_.extract(next);
        }
        if (auto v = l2s_[core].fill(next)) {
            if (policy_ == InclusionPolicy::Exclusive)
                l3_.fill(*v);
            l1s_[core].extract(*v);
        }
    }

    void
    fillPrivate(uint32_t core, uint64_t addr)
    {
        if (auto v = l2s_[core].fill(addr)) {
            if (policy_ == InclusionPolicy::Exclusive)
                l3_.fill(*v);
            l1s_[core].extract(*v);
        }
        l1s_[core].fill(addr);
    }

    void
    backInvalidate(uint64_t addr)
    {
        for (size_t c = 0; c < l1s_.size(); ++c) {
            l2s_[c].invalidate(addr);
            l1s_[c].invalidate(addr);
        }
    }

    InclusionPolicy policy_;
    PrefetchConfig prefetch_;
    std::vector<ReferenceCache> l1s_;
    std::vector<ReferenceCache> l2s_;
    ReferenceCache l3_;
    uint64_t prefetched_lines_ = 0;
};

} // namespace recperf

#endif // RECPERF_TESTS_REFERENCE_CACHE_HH
