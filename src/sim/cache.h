/**
 * @file
 * Set-associative write-back, write-allocate cache with LRU
 * replacement and CLFLUSH support, used for the L1/L2 hierarchy of
 * the trace-driven core (paper Tables 5 and 7).
 *
 * Layout: one flat vector of 64-bit words. Set s occupies 2 x ways
 * consecutive words: `ways` state words, then `ways` LRU stamps. A
 * state word packs `tag << 2 | dirty << 1 | valid`, so the hit test
 * is one compare per way with the dirty bit masked off. The set
 * index and the tag are a shift and a mask of the address (sizes are
 * powers of two), and a victim's line address is rebuilt from its
 * tag and the set index.
 *
 * Replacement: a miss fills an invalid way if the set has one,
 * otherwise the way with the smallest stamp (least recently used).
 * Invalidating a way zeroes its stamp, and accesses stamp with a
 * counter that starts at 1, so the smallest stamp is an invalid way
 * whenever the set has one.
 */

#ifndef CODIC_SIM_CACHE_H
#define CODIC_SIM_CACHE_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace codic {

/** Result of a cache access. */
struct CacheAccessResult
{
    bool hit = false;
    bool writeback = false;     //!< A dirty victim was evicted.
    uint64_t victim_addr = 0;   //!< Line address of the dirty victim.
};

/** One level of cache. */
class Cache
{
  public:
    /**
     * @param size_bytes Total capacity: exactly sets x ways x
     *        line_bytes with a power-of-two set count (panics
     *        otherwise).
     * @param ways Associativity.
     * @param line_bytes Line size (64 B throughout the paper); a
     *        power of two, at least 8.
     */
    Cache(uint64_t size_bytes, int ways, int line_bytes = 64);

    /**
     * Access a byte address; allocates on miss.
     * @param addr Byte address.
     * @param write True for stores (marks the line dirty).
     */
    CacheAccessResult access(uint64_t addr, bool write);

    /**
     * CLFLUSH: invalidate the line if present.
     * @return Present-and-dirty (a writeback is required).
     */
    bool flushLine(uint64_t addr);

    /**
     * Invalidate every line overlapping [addr, addr + bytes) without
     * writeback (hardware deallocation). Empty ranges are a no-op; a
     * range running past the top of the address space panics.
     */
    void invalidateRange(uint64_t addr, uint64_t bytes);

    /** Line size in bytes. */
    int lineBytes() const { return 1 << line_shift_; }

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }

  private:
    static constexpr uint64_t kValid = 1;
    static constexpr uint64_t kDirty = 2;

    /** First state word of the set holding `addr`. */
    uint64_t *setOf(uint64_t addr);

    /** The valid state word a line holding `addr` would have. */
    uint64_t tagWord(uint64_t addr) const
    {
        return (addr >> tag_shift_) << 2 | kValid;
    }

    size_t ways_;
    unsigned line_shift_;
    unsigned tag_shift_; //!< line_shift_ + log2(sets).
    uint64_t set_mask_;  //!< sets - 1.
    std::vector<uint64_t> words_; // Per set: ways states, ways stamps.
    uint64_t tick_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
};

} // namespace codic

#endif // CODIC_SIM_CACHE_H
