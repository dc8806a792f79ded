#include "simcache/cache.hh"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>

#include "core/logging.hh"

namespace recperf {

namespace {

uint32_t
roundUp(uint32_t x, uint32_t to)
{
    return (x + to - 1) / to * to;
}

} // namespace

Cache::Cache(std::string name, uint64_t size_bytes, uint32_t associativity,
             uint32_t line_bytes, bool track_sharers)
    : name_(std::move(name)), size_bytes_(size_bytes), assoc_(associativity),
      line_bytes_(line_bytes), track_sharers_(track_sharers)
{
    RP_ASSERT(line_bytes_ > 0 && assoc_ > 0, "bad cache geometry");
    RP_ASSERT(size_bytes_ % (static_cast<uint64_t>(line_bytes_) * assoc_) == 0,
              "%s: size %llu not divisible by line*assoc",
              name_.c_str(), static_cast<unsigned long long>(size_bytes_));
    num_sets_ = size_bytes_ / line_bytes_ / assoc_;
    RP_ASSERT(num_sets_ > 0, "%s: zero sets", name_.c_str());

    if (std::has_single_bit(line_bytes_))
        line_shift_ = std::countr_zero(line_bytes_);
    sets_pow2_ = std::has_single_bit(num_sets_);
    if (!sets_pow2_)
        set_magic_ = ~__uint128_t{0} / num_sets_ + 1;

    stamps_off_ = assoc_ * sizeof(uint64_t);
    clock_off_ = stamps_off_ + assoc_ * sizeof(uint16_t);
    sharers_off_ = clock_off_ + sizeof(uint16_t);
    uint32_t end = sharers_off_ +
        (track_sharers_ ? assoc_ * sizeof(SharerMask) : 0);
    set_stride_ = roundUp(end, kHostLineBytes);

    // Zeroed memory is an all-invalid cache, so calloc's lazily faulted
    // pages need no initialisation pass; the extra line aligns the sets
    // to host cache lines.
    size_t bytes = num_sets_ * set_stride_ + kHostLineBytes;
    alloc_ = std::calloc(bytes, 1);
    RP_ASSERT(alloc_ != nullptr, "%s: cannot allocate %zu B of tags",
              name_.c_str(), bytes);
    auto base = reinterpret_cast<uintptr_t>(alloc_);
    store_ = reinterpret_cast<uint8_t *>(
        (base + kHostLineBytes - 1) / kHostLineBytes * kHostLineBytes);
    order_.resize(assoc_);
}

Cache::~Cache()
{
    std::free(alloc_);
}

void
Cache::renumberStamps(uint8_t *set)
{
    // Renumber the valid ways 1..k in LRU order: replacement only
    // compares stamps within one set, so this changes no decision.
    uint64_t *t = tags(set);
    uint16_t *s = stamps(set);
    uint32_t *order = order_.data();
    uint32_t k = 0;
    for (uint32_t w = 0; w < assoc_; ++w) {
        if (t[w] != 0)
            order[k++] = w;
    }
    std::sort(order, order + k,
              [s](uint32_t a, uint32_t b) { return s[a] < s[b]; });
    for (uint32_t i = 0; i < k; ++i)
        s[order[i]] = static_cast<uint16_t>(i + 1);
    clock(set) = static_cast<uint16_t>(k);
}


bool
Cache::contains(uint64_t addr) const
{
    uint64_t line = lineAddr(addr);
    return findWay(setBlock(line), line + 1) >= 0;
}


bool
Cache::addSharers(uint64_t addr, SharerMask sharer_bits)
{
    uint64_t line = lineAddr(addr);
    uint8_t *set = setBlock(line);
    int32_t w = findWay(set, line + 1);
    if (w < 0)
        return false;
    if (track_sharers_)
        sharers(set)[w] |= sharer_bits;
    return true;
}

bool
Cache::invalidate(uint64_t addr)
{
    if (!extract(addr))
        return false;
    ++stats_.backInvalidations;
    return true;
}


void
Cache::flush()
{
    std::memset(store_, 0, num_sets_ * set_stride_);
}

uint64_t
Cache::occupancy() const
{
    return residentLines().size();
}

std::vector<uint64_t>
Cache::residentLines() const
{
    std::vector<uint64_t> lines;
    for (uint64_t s = 0; s < num_sets_; ++s) {
        uint64_t *t = tags(store_ + s * set_stride_);
        for (uint32_t w = 0; w < assoc_; ++w) {
            if (t[w] != 0)
                lines.push_back((t[w] - 1) * line_bytes_);
        }
    }
    return lines;
}

} // namespace recperf
