#include "simcache/hierarchy.hh"

#include "core/logging.hh"

namespace recperf {

const char *
hitLevelName(HitLevel level)
{
    switch (level) {
      case HitLevel::L1: return "L1";
      case HitLevel::L2: return "L2";
      case HitLevel::L3: return "L3";
      case HitLevel::Memory: return "DRAM";
    }
    return "Unknown";
}

CacheHierarchy::CacheHierarchy(uint32_t num_cores, const LevelConfig &l1,
                               const LevelConfig &l2, const LevelConfig &l3,
                               InclusionPolicy policy,
                               uint32_t dram_latency_cycles,
                               const PrefetchConfig &prefetch)
    : prefetch_(prefetch), policy_(policy), l1cfg_(l1), l2cfg_(l2),
      l3cfg_(l3), dram_latency_cycles_(dram_latency_cycles)
{
    RP_ASSERT(num_cores > 0, "hierarchy needs at least one core");
    for (uint32_t c = 0; c < num_cores; ++c) {
        l1s_.push_back(std::make_unique<Cache>(
            strprintf("L1[%u]", c), l1.sizeBytes, l1.associativity));
        l2s_.push_back(std::make_unique<Cache>(
            strprintf("L2[%u]", c), l2.sizeBytes, l2.associativity));
    }
    l3_ = std::make_unique<Cache>("L3", l3.sizeBytes, l3.associativity, 64,
                                  policy == InclusionPolicy::Inclusive);
}

void
CacheHierarchy::badCore(uint32_t core) const
{
    RP_PANIC("core %u out of %u", core, numCores());
}

HitLevel
CacheHierarchy::access(uint32_t core, uint64_t addr)
{
    if (core >= numCores()) [[unlikely]]
        badCore(core);

    if (l1s_[core]->access(addr))
        return HitLevel::L1;

    if (l2s_[core]->access(addr)) {
        // Refill L1 from L2; the L1 victim stays resident in L2.
        l1s_[core]->fill(addr);
        return HitLevel::L2;
    }

    if (policy_ == InclusionPolicy::Inclusive) {
        if (l3_->accessBy(addr, sharerBit(core))) {
            fillPrivate(core, addr);
            return HitLevel::L3;
        }
        fillL3(core, addr);
    } else if (l3_->access(addr)) {
        // Victim-cache semantics: the line moves up and out of L3.
        l3_->extract(addr);
        fillPrivate(core, addr);
        return HitLevel::L3;
    }
    // Serviced by memory. Exclusive: DRAM fills bypass the L3; it is
    // populated by L2 victims.
    fillPrivate(core, addr);
    if (prefetch_.nextLine)
        issuePrefetches(core, addr);
    return HitLevel::Memory;
}

void
CacheHierarchy::fillL3(uint32_t core, uint64_t addr)
{
    SharerMask victim_sharers = 0;
    if (auto victim = l3_->fillBy(addr, sharerBit(core), &victim_sharers))
        backInvalidate(*victim, victim_sharers);
}

void
CacheHierarchy::issuePrefetches(uint32_t core, uint64_t addr)
{
    const uint64_t line = l1s_[core]->lineBytes();
    for (uint32_t d = 1; d <= prefetch_.degree; ++d) {
        uint64_t next = addr + d * line;
        if (l2s_[core]->contains(next) || l1s_[core]->contains(next))
            continue;
        ++prefetched_lines_;
        // Prefetches install into the private L2 (and, on inclusive
        // hierarchies, the L3) without touching the L1. An exclusive
        // L3 gives the line up, as on a demand L3 hit.
        if (policy_ == InclusionPolicy::Inclusive) {
            if (!l3_->addSharers(next, sharerBit(core)))
                fillL3(core, next);
        } else {
            l3_->extract(next);
        }
        if (auto l2_victim = l2s_[core]->fill(next)) {
            if (policy_ == InclusionPolicy::Exclusive)
                insertVictimIntoL3(*l2_victim);
            l1s_[core]->extract(*l2_victim);
        }
    }
}

void
CacheHierarchy::fillPrivate(uint32_t core, uint64_t addr)
{
    if (auto l2_victim = l2s_[core]->fill(addr)) {
        if (policy_ == InclusionPolicy::Exclusive) {
            insertVictimIntoL3(*l2_victim);
        }
        // Inclusive: the victim's copy may legitimately remain in L3.
        // Evict it from L1 to keep L1 subset-of-L2 in both policies.
        l1s_[core]->extract(*l2_victim);
    }
    l1s_[core]->fill(addr);
}

void
CacheHierarchy::backInvalidate(uint64_t addr, SharerMask sharers)
{
    // Only cores in the mask can hold the line, and L1 is a subset of
    // L2, so an L2 miss proves the L1 holds no copy either.
    for (uint32_t c = 0; c < numCores(); ++c) {
        if ((sharers & sharerBit(c)) && l2s_[c]->invalidate(addr))
            l1s_[c]->invalidate(addr);
    }
}

void
CacheHierarchy::insertVictimIntoL3(uint64_t addr)
{
    // Exclusive LLC absorbs private-cache victims; its own victims are
    // simply dropped (clean-eviction model).
    l3_->fill(addr);
}

uint32_t
CacheHierarchy::latencyCycles(HitLevel level) const
{
    switch (level) {
      case HitLevel::L1: return l1cfg_.latencyCycles;
      case HitLevel::L2: return l2cfg_.latencyCycles;
      case HitLevel::L3: return l3cfg_.latencyCycles;
      case HitLevel::Memory: return dram_latency_cycles_;
    }
    RP_PANIC("unreachable hit level");
}

void
CacheHierarchy::flushAll()
{
    for (auto &c : l1s_)
        c->flush();
    for (auto &c : l2s_)
        c->flush();
    l3_->flush();
}

HierarchyCounters
CacheHierarchy::counters() const
{
    HierarchyCounters agg;
    for (const auto &c : l1s_)
        agg.l1 += c->stats();
    for (const auto &c : l2s_)
        agg.l2 += c->stats();
    agg.l3 += l3_->stats();
    return agg;
}

void
CacheHierarchy::resetStats()
{
    for (auto &c : l1s_)
        c->stats().reset();
    for (auto &c : l2s_)
        c->stats().reset();
    l3_->stats().reset();
}

void
CacheHierarchy::checkInclusionInvariant() const
{
    if (policy_ != InclusionPolicy::Inclusive)
        return;
    // Every line held in a private L1 or L2 must also be present in L3.
    for (size_t c = 0; c < l2s_.size(); ++c) {
        for (uint64_t addr : l2s_[c]->residentLines()) {
            RP_ASSERT(l3_->contains(addr),
                      "inclusion violated: L2[%zu] line %llu not in L3",
                      c, static_cast<unsigned long long>(addr));
        }
        for (uint64_t addr : l1s_[c]->residentLines()) {
            RP_ASSERT(l3_->contains(addr),
                      "inclusion violated: L1[%zu] line %llu not in L3",
                      c, static_cast<unsigned long long>(addr));
        }
    }
}

} // namespace recperf
