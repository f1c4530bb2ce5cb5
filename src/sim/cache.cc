#include "sim/cache.h"

#include <bit>

#include "common/logging.h"

namespace codic {

Cache::Cache(uint64_t size_bytes, int ways, int line_bytes)
    : ways_(static_cast<size_t>(ways))
{
    CODIC_ASSERT(ways >= 1 && line_bytes >= 8);
    const uint64_t line = static_cast<uint64_t>(line_bytes);
    CODIC_ASSERT(std::has_single_bit(line));
    const uint64_t sets = size_bytes / line / ways_;
    if (sets == 0 || !std::has_single_bit(sets) ||
        sets * ways_ * line != size_bytes)
        panic("cache: ", size_bytes, " B is not a power-of-two set "
              "count x ", ways, " ways x ", line_bytes, " B lines");
    line_shift_ = static_cast<unsigned>(std::countr_zero(line));
    tag_shift_ = line_shift_ +
                 static_cast<unsigned>(std::countr_zero(sets));
    set_mask_ = sets - 1;
    // A state word keeps valid and dirty below the tag: the tag must
    // lose no bits when shifted up by two.
    CODIC_ASSERT(tag_shift_ >= 2);
    words_.assign(sets * 2 * ways_, 0);
}

uint64_t *
Cache::setOf(uint64_t addr)
{
    const uint64_t set = (addr >> line_shift_) & set_mask_;
    return &words_[set * 2 * ways_];
}

CacheAccessResult
Cache::access(uint64_t addr, bool write)
{
    ++tick_;
    uint64_t *state = setOf(addr);
    uint64_t *stamp = state + ways_;
    const uint64_t want = tagWord(addr);

    CacheAccessResult result;
    for (size_t w = 0; w < ways_; ++w) {
        if ((state[w] & ~kDirty) == want) {
            state[w] |= write ? kDirty : 0;
            stamp[w] = tick_;
            ++hits_;
            result.hit = true;
            return result;
        }
    }
    ++misses_;
    // The LRU way is as likely in any position, so pick it without a
    // branch per way (conditional moves, not mispredicted jumps).
    size_t victim = 0;
    uint64_t oldest = stamp[0];
    for (size_t w = 1; w < ways_; ++w) {
        const bool older = stamp[w] < oldest;
        oldest = older ? stamp[w] : oldest;
        victim = older ? w : victim;
    }
    if (state[victim] & kDirty) {
        const uint64_t set = (addr >> line_shift_) & set_mask_;
        result.writeback = true;
        result.victim_addr = (state[victim] >> 2) << tag_shift_ |
                             set << line_shift_;
    }
    state[victim] = want | (write ? kDirty : 0);
    stamp[victim] = tick_;
    return result;
}

bool
Cache::flushLine(uint64_t addr)
{
    uint64_t *state = setOf(addr);
    const uint64_t want = tagWord(addr);
    for (size_t w = 0; w < ways_; ++w) {
        if ((state[w] & ~kDirty) == want) {
            const bool dirty = state[w] & kDirty;
            state[w] = 0;
            state[ways_ + w] = 0;
            return dirty;
        }
    }
    return false;
}

void
Cache::invalidateRange(uint64_t addr, uint64_t bytes)
{
    if (bytes == 0)
        return;
    const uint64_t last = addr + (bytes - 1);
    if (last < addr)
        panic("cache: invalidateRange(", addr, ", ", bytes,
              ") runs past the top of the address space");
    for (uint64_t l = addr >> line_shift_; l <= last >> line_shift_;
         ++l)
        flushLine(l << line_shift_);
}

} // namespace codic
