/**
 * @file
 * Direct unit tests of the set-associative write-back cache model
 * (sim/cache.h). Until the trace subsystem made it a public
 * ingestion dependency (trace/cache_filter.h), the cache was only
 * exercised indirectly through the trace-driven core; these tests
 * pin its replacement, write-allocate, writeback, and flush
 * semantics on their own.
 */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "sim/cache.h"

namespace codic {
namespace {

constexpr uint64_t kLine = 64;

// One set, four ways: eviction order is fully observable.
Cache
oneSetCache()
{
    return Cache(4 * kLine, 4, static_cast<int>(kLine));
}

TEST(Cache, MissThenHitWithinOneLine)
{
    Cache c(1 << 20, 16);
    EXPECT_FALSE(c.access(0x1000, false).hit);
    // Any byte of the same 64 B line hits.
    EXPECT_TRUE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x103F, false).hit);
    EXPECT_FALSE(c.access(0x1040, false).hit);
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(Cache, WriteAllocateMakesStoresHitAfterMiss)
{
    Cache c(1 << 20, 16);
    EXPECT_FALSE(c.access(0x2000, true).hit);
    EXPECT_TRUE(c.access(0x2000, false).hit);
}

TEST(Cache, LruEvictsLeastRecentlyUsedWay)
{
    Cache c = oneSetCache();
    // Fill the set: lines 0..3.
    for (uint64_t i = 0; i < 4; ++i)
        EXPECT_FALSE(c.access(i * kLine, false).hit);
    // Touch line 0 so line 1 becomes LRU.
    EXPECT_TRUE(c.access(0, false).hit);
    // A fifth line evicts line 1 (clean: no writeback).
    const CacheAccessResult r = c.access(4 * kLine, false);
    EXPECT_FALSE(r.hit);
    EXPECT_FALSE(r.writeback);
    EXPECT_TRUE(c.access(0, false).hit) << "recently used survived";
    EXPECT_FALSE(c.access(1 * kLine, false).hit) << "LRU evicted";
}

TEST(Cache, DirtyVictimReportsWritebackWithVictimLineAddress)
{
    Cache c = oneSetCache();
    c.access(0 * kLine, true); // Dirty: the future LRU victim.
    c.access(1 * kLine, false);
    c.access(2 * kLine, false);
    c.access(3 * kLine, false);
    const CacheAccessResult r = c.access(4 * kLine, false);
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(r.victim_addr, 0u * kLine);
}

TEST(Cache, FlushLineReportsDirtyAndInvalidates)
{
    Cache c(1 << 20, 16);
    c.access(0x3000, true);
    c.access(0x4000, false);
    EXPECT_TRUE(c.flushLine(0x3000)) << "dirty line needs writeback";
    EXPECT_FALSE(c.flushLine(0x4000)) << "clean line does not";
    EXPECT_FALSE(c.flushLine(0x5000)) << "absent line does not";
    // Both flushed lines are gone.
    EXPECT_FALSE(c.access(0x3000, false).hit);
    EXPECT_FALSE(c.access(0x4000, false).hit);
}

TEST(Cache, InvalidateRangeDropsCoveredLinesWithoutWriteback)
{
    Cache c(1 << 20, 16);
    c.access(0x8000, true);  // Dirty, inside the range.
    c.access(0x8040, false); // Clean, inside.
    c.access(0x9000, true);  // Dirty, outside.
    c.invalidateRange(0x8000, 0x1000);
    EXPECT_FALSE(c.access(0x8000, false).hit);
    EXPECT_FALSE(c.access(0x8040, false).hit);
    EXPECT_TRUE(c.access(0x9000, false).hit);
    // The dirty line inside the range was discarded, not written
    // back (hardware deallocation semantics): flushing its address
    // now reports clean.
    EXPECT_FALSE(c.flushLine(0x8000));
}

TEST(Cache, CountersTallyEveryAccess)
{
    Cache c = oneSetCache();
    for (uint64_t i = 0; i < 8; ++i)
        c.access(i * kLine, i % 2 == 0);
    EXPECT_EQ(c.hits() + c.misses(), 8u);
    EXPECT_EQ(c.misses(), 8u) << "8 distinct lines in a 4-way set";
    EXPECT_EQ(c.lineBytes(), static_cast<int>(kLine));
}

TEST(Cache, VictimAddressSurvivesTopOfAddressSpace)
{
    // The tag is packed above the valid and dirty bits; the victim
    // address is rebuilt from it, so the top tag bits must survive.
    Cache c = oneSetCache();
    const uint64_t top = ~uint64_t{0} - (kLine - 1);
    c.access(top, true);
    for (uint64_t i = 1; i < 4; ++i)
        c.access(top - i * kLine, false);
    const CacheAccessResult r = c.access(0, false);
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(r.victim_addr, top);
}

TEST(Cache, SizeThatIsNotSetsTimesWaysTimesLinePanics)
{
    // 65600 B is 64 KB plus one line: not a whole number of 4-way
    // sets, so it must not round down to 64 KB.
    EXPECT_THROW(Cache(65600, 4), PanicError);
    // Three 4-way sets: the set count must be a power of two.
    EXPECT_THROW(Cache(3 * 4 * kLine, 4), PanicError);
    // Fewer lines than ways.
    EXPECT_THROW(Cache(2 * kLine, 4), PanicError);
    EXPECT_THROW(Cache(1 << 20, 16, 48), PanicError) << "line not 2^n";
    EXPECT_NO_THROW(Cache(48 << 10, 3));
}

TEST(Cache, InvalidateEmptyRangeIsANoOp)
{
    Cache c(1 << 20, 16);
    c.access(0x1000, true);
    c.invalidateRange(0x1010, 0); // Unaligned, inside the line.
    c.invalidateRange(0x1000, 0);
    EXPECT_TRUE(c.flushLine(0x1000)) << "line kept, still dirty";
}

TEST(Cache, InvalidateRangePastTopOfAddressSpacePanics)
{
    Cache c(1 << 20, 16);
    const uint64_t top = ~uint64_t{0} - (kLine - 1);
    c.access(top, false);
    EXPECT_THROW(c.invalidateRange(top, 2 * kLine), PanicError);
    EXPECT_THROW(c.invalidateRange(~uint64_t{0}, 2), PanicError);
    // A range ending exactly at the top is fine and drops the line.
    EXPECT_TRUE(c.access(top, false).hit);
    c.invalidateRange(top, kLine);
    EXPECT_FALSE(c.access(top, false).hit);
}

} // namespace
} // namespace codic
