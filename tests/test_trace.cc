/**
 * @file
 * Trace subsystem tests: binary round-trip fidelity (write -> mmap
 * read -> byte-identical re-write), loud rejection of foreign or
 * damaged files, epoch-index seeks, cache-filter semantics, the
 * DramSystem recorder tap, record -> replay determinism across
 * thread counts, and the flat-RSS streaming guarantee on a
 * 10^7-record trace.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "common/result_sink.h"
#include "dram/system.h"
#include "scenario/registry.h"
#include "secdealloc/evaluate.h"
#include "sim/workloads.h"
#include "trace/cache_filter.h"
#include "trace/recorder.h"
#include "trace/replay.h"
#include "trace/trace_io.h"

namespace codic {
namespace {

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + "codic_trace_test_" + name;
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << path;
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
}

uint64_t
splitmix64(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** A mixed-kind record stream with jittered ticks and a RowOp
 *  sprinkle (negative reserved rows exercise the zigzag path). */
std::vector<TraceRecord>
sampleRecords(size_t count, uint64_t seed = 7)
{
    std::vector<TraceRecord> records;
    records.reserve(count);
    uint64_t rng = seed;
    uint64_t tick = 0;
    for (size_t i = 0; i < count; ++i) {
        TraceRecord r;
        tick += splitmix64(rng) % 100;
        r.tick = tick;
        r.addr = (splitmix64(rng) % (1ull << 34)) & ~63ull;
        r.origin = splitmix64(rng) % 5 * (1ull << 30);
        switch (i % 7) {
        case 0: r.kind = TraceOpKind::Load; break;
        case 1: r.kind = TraceOpKind::Store; break;
        case 2: r.kind = TraceOpKind::Flush; break;
        case 3: r.kind = TraceOpKind::Write; break;
        case 4:
            r.kind = TraceOpKind::RowOp;
            r.mech = static_cast<uint8_t>(i % 3);
            r.reserved_row =
                static_cast<int64_t>(i % 5) - 2; // Negatives too.
            break;
        default: r.kind = TraceOpKind::Read; break;
        }
        records.push_back(r);
    }
    return records;
}

std::vector<TraceRecord>
decodeAll(const TraceReader &reader)
{
    std::vector<TraceRecord> out;
    out.reserve(reader.recordCount());
    TraceCursor cursor = reader.cursor();
    TraceRecord r;
    while (cursor.next(r))
        out.push_back(r);
    return out;
}

// --- Round trip -------------------------------------------------------------

TEST(TraceIo, WriteReadRewriteIsByteIdentical)
{
    const std::string path_a = tmpPath("roundtrip_a.trace");
    const std::string path_b = tmpPath("roundtrip_b.trace");
    const std::vector<TraceRecord> records = sampleRecords(10000);
    TraceMeta meta;
    meta.scenario = "unit_roundtrip";
    meta.seed = 42;
    meta.epoch_stride = 512;
    {
        TraceWriter writer(path_a, meta);
        for (const TraceRecord &r : records)
            writer.append(r);
        writer.finish();
    }

    TraceReader reader(path_a);
    EXPECT_EQ(reader.version(), kTraceFormatVersion);
    EXPECT_EQ(reader.recordCount(), records.size());
    EXPECT_EQ(reader.meta().scenario, "unit_roundtrip");
    EXPECT_EQ(reader.meta().seed, 42u);
    EXPECT_EQ(reader.meta().epoch_stride, 512u);
    EXPECT_EQ(reader.epochs().size(), (records.size() + 511) / 512);

    const std::vector<TraceRecord> decoded = decodeAll(reader);
    ASSERT_EQ(decoded.size(), records.size());
    for (size_t i = 0; i < records.size(); ++i) {
        ASSERT_EQ(decoded[i], records[i]) << "record " << i;
    }

    // The format is a pure function of (meta, record sequence):
    // re-writing what was decoded reproduces the file exactly.
    {
        TraceWriter writer(path_b, meta);
        for (const TraceRecord &r : decoded)
            writer.append(r);
        writer.finish();
    }
    EXPECT_EQ(fileBytes(path_a), fileBytes(path_b));
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
}

TEST(TraceIo, EmptyTraceRoundTrips)
{
    const std::string path = tmpPath("empty.trace");
    {
        TraceWriter writer(path, TraceMeta{});
        writer.finish();
    }
    TraceReader reader(path);
    EXPECT_EQ(reader.recordCount(), 0u);
    EXPECT_TRUE(reader.epochs().empty());
    TraceCursor cursor = reader.cursor();
    TraceRecord r;
    EXPECT_FALSE(cursor.next(r));
    EXPECT_NE(reader.describe().find("records: 0"),
              std::string::npos);
    std::remove(path.c_str());
}

// --- Rejection of foreign / damaged files -----------------------------------

class TraceRejection : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        path_ = tmpPath("reject.trace");
        TraceMeta meta;
        meta.scenario = "unit_reject";
        meta.epoch_stride = 64;
        TraceWriter writer(path_, meta);
        for (const TraceRecord &r : sampleRecords(500))
            writer.append(r);
        writer.finish();
        bytes_ = fileBytes(path_);
    }

    void TearDown() override { std::remove(path_.c_str()); }

    std::string path_;
    std::string bytes_;
};

TEST_F(TraceRejection, BadMagic)
{
    std::string damaged = bytes_;
    damaged[0] = 'X';
    writeFile(path_, damaged);
    EXPECT_THROW(TraceReader{path_}, FatalError);
}

TEST_F(TraceRejection, VersionMismatch)
{
    std::string damaged = bytes_;
    damaged[8] = 0x7f; // format version -> 127.
    writeFile(path_, damaged);
    try {
        TraceReader reader(path_);
        FAIL() << "version 127 was accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("format version"),
                  std::string::npos);
    }
}

TEST_F(TraceRejection, TruncatedHeader)
{
    writeFile(path_, bytes_.substr(0, 20));
    EXPECT_THROW(TraceReader{path_}, FatalError);
}

TEST_F(TraceRejection, TruncatedBody)
{
    writeFile(path_, bytes_.substr(0, bytes_.size() - 40));
    EXPECT_THROW(TraceReader{path_}, FatalError);
}

TEST_F(TraceRejection, AbortedRecordingWithoutIndex)
{
    std::string damaged = bytes_;
    for (size_t i = 24; i < 32; ++i) // index_offset -> 0.
        damaged[i] = 0;
    writeFile(path_, damaged);
    try {
        TraceReader reader(path_);
        FAIL() << "unfinalized trace was accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("never finalized"),
                  std::string::npos);
    }
}

TEST_F(TraceRejection, IndexOffsetNearTheTopOfTheRangeIsRejected)
{
    std::string damaged = bytes_;
    damaged[24] = static_cast<char>(0xFC); // index_offset -> 2^64 - 4,
    for (size_t i = 25; i < 32; ++i)        // which wraps if 8 is added.
        damaged[i] = static_cast<char>(0xFF);
    writeFile(path_, damaged);
    EXPECT_THROW(TraceReader{path_}, FatalError);
}

// --- Seeks ------------------------------------------------------------------

TEST(TraceIo, SeekMatchesSequentialDecode)
{
    const std::string path = tmpPath("seek.trace");
    const std::vector<TraceRecord> records = sampleRecords(3000);
    TraceMeta meta;
    meta.epoch_stride = 128;
    {
        TraceWriter writer(path, meta);
        for (const TraceRecord &r : records)
            writer.append(r);
        writer.finish();
    }
    TraceReader reader(path);
    for (const uint64_t target :
         {uint64_t(0), uint64_t(1), uint64_t(127), uint64_t(128),
          uint64_t(1000), uint64_t(2999)}) {
        TraceCursor cursor = reader.seekToRecord(target);
        EXPECT_EQ(cursor.position(), target);
        TraceRecord r;
        ASSERT_TRUE(cursor.next(r)) << target;
        EXPECT_EQ(r, records[static_cast<size_t>(target)])
            << "seek to " << target;
    }
    // Seeking to the end yields an exhausted cursor.
    TraceCursor end = reader.seekToRecord(records.size());
    TraceRecord r;
    EXPECT_FALSE(end.next(r));
    EXPECT_THROW(reader.seekToRecord(records.size() + 1), FatalError);

    // seekToTick lands on an epoch start at or before the target.
    const uint64_t mid_tick = records[1500].tick;
    TraceCursor by_tick = reader.seekToTick(mid_tick);
    EXPECT_EQ(by_tick.position() % 128, 0u);
    ASSERT_TRUE(by_tick.next(r));
    EXPECT_LE(r.tick, mid_tick);
    std::remove(path.c_str());
}

// --- Cache filter -----------------------------------------------------------

CacheFilterConfig
oneSetFilter()
{
    CacheFilterConfig config;
    config.llc_bytes = 4 * 64; // One 4-way set: evictions visible.
    config.ways = 4;
    config.line_bytes = 64;
    return config;
}

TraceRecord
cpuRecord(TraceOpKind kind, uint64_t addr, uint64_t tick)
{
    TraceRecord r;
    r.kind = kind;
    r.addr = addr;
    r.tick = tick;
    r.origin = 99;
    return r;
}

TEST(CacheFilterTest, HitsAreAbsorbedMissesBecomeReads)
{
    CacheFilter filter(oneSetFilter());
    std::vector<TraceRecord> out;
    filter.process(cpuRecord(TraceOpKind::Load, 0x100, 5), out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].kind, TraceOpKind::Read);
    EXPECT_EQ(out[0].addr, 0x100u);
    EXPECT_EQ(out[0].tick, 5u);
    EXPECT_EQ(out[0].origin, 99u);

    filter.process(cpuRecord(TraceOpKind::Load, 0x100, 6), out);
    EXPECT_EQ(out.size(), 1u) << "hit must be absorbed";
    EXPECT_EQ(filter.stats().hits, 1u);
    EXPECT_EQ(filter.stats().misses, 1u);
}

TEST(CacheFilterTest, DirtyEvictionEmitsVictimWriteback)
{
    CacheFilter filter(oneSetFilter());
    std::vector<TraceRecord> out;
    // Dirty line 0, then fill the set and overflow it.
    filter.process(cpuRecord(TraceOpKind::Store, 0 * 64, 0), out);
    for (uint64_t i = 1; i < 4; ++i)
        filter.process(cpuRecord(TraceOpKind::Load, i * 64, i), out);
    out.clear();
    filter.process(cpuRecord(TraceOpKind::Load, 4 * 64, 9), out);
    ASSERT_EQ(out.size(), 2u) << "miss read + victim writeback";
    EXPECT_EQ(out[0].kind, TraceOpKind::Read);
    EXPECT_EQ(out[0].addr, 4u * 64);
    EXPECT_EQ(out[1].kind, TraceOpKind::Write);
    EXPECT_EQ(out[1].addr, 0u) << "the dirty victim's line";
    EXPECT_EQ(out[1].tick, 9u);
    EXPECT_EQ(filter.stats().writebacks, 1u);
}

TEST(CacheFilterTest, FlushWritesBackOnlyDirtyLines)
{
    CacheFilter filter(oneSetFilter());
    std::vector<TraceRecord> out;
    filter.process(cpuRecord(TraceOpKind::Store, 0x40, 0), out);
    filter.process(cpuRecord(TraceOpKind::Load, 0x80, 1), out);
    out.clear();
    filter.process(cpuRecord(TraceOpKind::Flush, 0x40, 2), out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].kind, TraceOpKind::Write);
    filter.process(cpuRecord(TraceOpKind::Flush, 0x80, 3), out);
    EXPECT_EQ(out.size(), 1u) << "clean flush emits nothing";
    filter.process(cpuRecord(TraceOpKind::Flush, 0xF000, 4), out);
    EXPECT_EQ(out.size(), 1u) << "absent flush emits nothing";
}

TEST(CacheFilterTest, DramLevelRecordsPassThroughUnchanged)
{
    CacheFilter filter(oneSetFilter());
    TraceRecord rowop;
    rowop.kind = TraceOpKind::RowOp;
    rowop.addr = 0x2000;
    rowop.tick = 77;
    rowop.mech = 1;
    rowop.reserved_row = 3;
    std::vector<TraceRecord> out;
    filter.process(rowop, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], rowop);
    EXPECT_EQ(filter.stats().passthrough, 1u);
    // Idempotence: filtering a filtered trace changes nothing.
    CacheFilter second(oneSetFilter());
    EXPECT_EQ(second.filter(out), out);
}

TEST(CacheFilter, LlcSweepPinned)
{
    // trace_filter_ablation's six LLC sizes (16-way, 64 B lines) over
    // one fixed CPU-level stream: half random lines of a 1 MB hot
    // region, half a sequential sweep of 16 MB, one access in four a
    // store, one record in a hundred a flush. The numbers were
    // captured from the division-indexed cache model; any change to
    // hit, eviction or writeback behaviour (or to the victim
    // addresses written back) moves them.
    Rng rng(2207);
    std::vector<TraceRecord> raw;
    uint64_t sweep = 0;
    for (uint64_t i = 0; i < 200000; ++i) {
        uint64_t addr;
        if (rng.chance(0.5)) {
            addr = rng.below(1ull << 20);
        } else {
            addr = sweep;
            sweep = (sweep + 64) % (16ull << 20);
        }
        const double op = rng.uniform();
        const TraceOpKind kind = op < 0.01   ? TraceOpKind::Flush
                                 : op < 0.26 ? TraceOpKind::Store
                                             : TraceOpKind::Load;
        raw.push_back(cpuRecord(kind, addr, i));
    }

    struct Pin
    {
        int llc_kb;
        uint64_t hits, misses, writebacks, records_out;
        uint64_t write_addr_sum; //!< Sum of emitted Write addresses.
    };
    const Pin pins[] = {
        {64, 4114, 193958, 49675, 243633, 92119317334},
        {128, 8131, 189941, 49112, 239053, 90917791410},
        {256, 15880, 182192, 48008, 230200, 88877864006},
        {512, 30439, 167633, 45495, 213128, 84438635828},
        {1024, 54466, 143606, 39934, 183540, 74769544311},
        {2048, 81139, 116933, 27856, 144789, 54095802550},
    };
    for (const Pin &pin : pins) {
        CacheFilterConfig config;
        config.llc_bytes = static_cast<uint64_t>(pin.llc_kb) * 1024;
        CacheFilter filter(config);
        const std::vector<TraceRecord> out = filter.filter(raw);
        const CacheFilterStats &s = filter.stats();
        SCOPED_TRACE(pin.llc_kb);
        EXPECT_EQ(s.hits, pin.hits);
        EXPECT_EQ(s.misses, pin.misses);
        EXPECT_EQ(s.writebacks, pin.writebacks);
        EXPECT_EQ(s.records_out, pin.records_out);
        EXPECT_EQ(out.size(), s.records_out);
        uint64_t write_addr_sum = 0;
        for (const TraceRecord &r : out)
            if (r.kind == TraceOpKind::Write)
                write_addr_sum += r.addr;
        EXPECT_EQ(write_addr_sum, pin.write_addr_sum);
    }
}

// --- Recorder tap -----------------------------------------------------------

TEST(TraceRecorderTest, TapPreservesTransactionFields)
{
    const std::string path = tmpPath("recorder.trace");
    TraceMeta meta;
    meta.scenario = "unit_recorder";
    meta.seed = 11;
    TraceRecorder::start(path, meta);
    EXPECT_TRUE(TraceRecorder::active());
    {
        DramSystem sys(DramConfig::preset("ddr3-1600", 64));
        sys.completionOf(sys.submit(
            MemTransaction::makeRead(0x1000, 10, 0xAB)));
        sys.retire(sys.submit(
            MemTransaction::makeWrite(0x2040, 20, 0xCD)));
        sys.completionOf(sys.submit(MemTransaction::makeRowOp(
            0x4000, 30, RowOpMechanism::RowClone, 5, 0xEF)));
        sys.drainAll();
    }
    EXPECT_EQ(TraceRecorder::stop(), 3u);
    EXPECT_FALSE(TraceRecorder::active());

    TraceReader reader(path);
    const std::vector<TraceRecord> records = decodeAll(reader);
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[0].kind, TraceOpKind::Read);
    EXPECT_EQ(records[0].addr, 0x1000u);
    EXPECT_EQ(records[0].tick, 10u);
    EXPECT_EQ(records[0].origin, 0xABu);
    EXPECT_EQ(records[1].kind, TraceOpKind::Write);
    EXPECT_EQ(records[1].addr, 0x2040u);
    EXPECT_EQ(records[2].kind, TraceOpKind::RowOp);
    EXPECT_EQ(records[2].mech,
              static_cast<uint8_t>(RowOpMechanism::RowClone));
    EXPECT_EQ(records[2].reserved_row, 5);
    EXPECT_EQ(records[2].origin, 0xEFu);
    EXPECT_EQ(reader.meta().scenario, "unit_recorder");
    std::remove(path.c_str());
}

/** FNV-1a over every field of every record, in stream order. */
uint64_t
fnv1a(const std::vector<TraceRecord> &records)
{
    uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    };
    for (const TraceRecord &r : records) {
        mix(static_cast<uint64_t>(r.kind));
        mix(r.addr);
        mix(r.tick);
        mix(r.origin);
        mix(r.mech);
        mix(static_cast<uint64_t>(r.reserved_row));
    }
    return h;
}

// Pins what the recorder sees of InOrderCore multi-core runs: loads,
// RFOs, writebacks (tiny caches force many) and every dealloc
// mechanism, on one and two channels. Any change to the order, ticks
// or fields of the transactions the cores hand the memory system
// moves the count or the hash.
TEST(TraceRecorderTest, MultiCoreRecordingPinned)
{
    const std::string path = tmpPath("multicore.trace");
    TraceMeta meta;
    meta.scenario = "unit_multicore";
    TraceRecorder::start(path, meta);
    WorkloadMix mix;
    mix.name = "pin";
    const char *benches[] = {"malloc", "bootup", "tpcc64", "libquantum"};
    for (int i = 0; i < 4; ++i) {
        WorkloadParams p = benchmarkParams(benches[i], 31 + i);
        p.phases = 6;
        mix.traces.push_back(generateWorkload(p));
    }
    DeallocEvalConfig config;
    config.core.l1_bytes = 4096;
    config.core.l2_bytes = 16384;
    for (int channels : {1, 2}) {
        config.dram_channels = channels;
        for (DeallocMode mode :
             {DeallocMode::SoftwareZero, DeallocMode::CodicDet,
              DeallocMode::RowClone, DeallocMode::LisaClone})
            runMultiCore(mix, mode, config);
    }
    const uint64_t count = TraceRecorder::stop();

    TraceReader reader(path);
    const std::vector<TraceRecord> records = decodeAll(reader);
    ASSERT_EQ(records.size(), count);
    size_t kinds[3] = {0, 0, 0};
    for (const TraceRecord &r : records) {
        if (r.kind == TraceOpKind::Read)
            ++kinds[0];
        else if (r.kind == TraceOpKind::Write)
            ++kinds[1];
        else if (r.kind == TraceOpKind::RowOp)
            ++kinds[2];
    }
    // Every kind the cores submit is present.
    EXPECT_GT(kinds[0], 0u);
    EXPECT_GT(kinds[1], 0u);
    EXPECT_GT(kinds[2], 0u);
    EXPECT_EQ(count, 107626u);
    EXPECT_EQ(fnv1a(records), 18109969494118083654ull);
    std::remove(path.c_str());
}

// --- Record -> replay determinism -------------------------------------------

std::string
replayJsonFor(const std::string &trace_path, int threads)
{
    RunOptions options;
    options.trace_path = trace_path;
    options.threads = threads;
    std::ostringstream out;
    JsonResultSink sink(out);
    EXPECT_TRUE(runScenario("trace_replay", options, sink));
    sink.finish();
    return out.str();
}

TEST(TraceReplayTest, RecordedScenarioReplaysByteIdenticalAcrossThreads)
{
    const std::string path = tmpPath("replay_determinism.trace");
    {
        TraceMeta meta;
        meta.scenario = "ablation_scheduler";
        meta.seed = 1;
        TraceRecorder::start(path, meta);
        RunOptions options;
        options.scale = 0.01;
        options.threads = 1; // Byte-stable recording order.
        MultiResultSink devnull;
        EXPECT_TRUE(
            runScenario("ablation_scheduler", options, devnull));
        EXPECT_GT(TraceRecorder::stop(), 0u);
    }
    const std::string sequential = replayJsonFor(path, 1);
    const std::string parallel = replayJsonFor(path, 8);
    EXPECT_EQ(sequential, parallel)
        << "replay output depends on the thread count";
    EXPECT_NE(sequential.find("\"rowops\""), std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceReplayTest, RejectsCpuLevelRecords)
{
    DramSystem sys(DramConfig::preset("ddr3-1600", 64));
    TraceReplaySource source(sys);
    TraceRecord raw;
    raw.kind = TraceOpKind::Load;
    try {
        source.step(raw);
        FAIL() << "CPU-level record was replayed";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("cache filter"),
                  std::string::npos);
    }
}

TEST(TraceReplayTest, SpeedRescalesInterArrivals)
{
    DramSystem sys(DramConfig::preset("ddr3-1600", 64));
    ReplayOptions fast;
    fast.speed = 4.0;
    TraceReplaySource source(sys, fast);
    TraceRecord r;
    r.kind = TraceOpKind::Read;
    r.addr = 0;
    r.tick = 1000;
    source.step(r);
    r.addr = 64;
    r.tick = 1800; // +800 ticks -> +200 at speed 4.
    source.step(r);
    const ReplayReport report = source.finish();
    EXPECT_EQ(report.first_arrival, 1000);
    EXPECT_EQ(report.last_arrival, 1200);
    EXPECT_EQ(report.reads, 2u);
}

// --- RunOptions trace-flag contract -----------------------------------------

TEST(RunOptionsTrace, RejectsContradictoryTraceFlags)
{
    const std::string path = tmpPath("options.trace");
    {
        TraceWriter writer(path, TraceMeta{});
        writer.finish();
    }
    RunOptions ok;
    ok.trace_path = path;
    ok.record_trace = path + ".out";
    ok.trace_speed = 2.0;
    EXPECT_NO_THROW(ok.validate());

    RunOptions same = ok;
    same.record_trace = path;
    EXPECT_THROW(same.validate(), FatalError);

    RunOptions missing = ok;
    missing.trace_path = path + ".does_not_exist";
    EXPECT_THROW(missing.validate(), FatalError);

    for (const double bad :
         {0.0, -1.0, std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::quiet_NaN()}) {
        RunOptions speed = ok;
        speed.trace_speed = bad;
        EXPECT_THROW(speed.validate(), FatalError) << bad;
    }
    std::remove(path.c_str());
}

// --- Flat-RSS streaming -----------------------------------------------------

#ifdef __linux__

uint64_t
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    uint64_t vm_pages = 0;
    uint64_t rss_pages = 0;
    statm >> vm_pages >> rss_pages;
    return rss_pages * 4096;
}

TEST(TraceIo, StreamingTenMillionRecordsKeepsResidentMemoryFlat)
{
    const std::string path = tmpPath("bigstream.trace");
    constexpr uint64_t kRecords = 10'000'000;
    {
        TraceWriter writer(path, TraceMeta{});
        TraceRecord r;
        r.kind = TraceOpKind::Read;
        uint64_t rng = 99;
        for (uint64_t i = 0; i < kRecords; ++i) {
            r.tick = i * 13;
            r.addr = (splitmix64(rng) % (1ull << 32)) & ~63ull;
            writer.append(r);
        }
        writer.finish();
    }

    TraceReader reader(path);
    ASSERT_EQ(reader.recordCount(), kRecords);
    ASSERT_GT(reader.fileBytes(), 40u * 1024 * 1024)
        << "the trace must dwarf the RSS bound for the test to "
           "mean anything";
    TraceCursor cursor = reader.cursor(/*streaming=*/true);
    TraceRecord r;
    // Warm up past the first release granule, then watch RSS.
    for (uint64_t i = 0; i < kRecords / 10; ++i)
        ASSERT_TRUE(cursor.next(r));
    const uint64_t baseline = residentBytes();
    uint64_t peak = baseline;
    uint64_t decoded = kRecords / 10;
    while (cursor.next(r)) {
        ++decoded;
        if (decoded % (kRecords / 10) == 0)
            peak = std::max(peak, residentBytes());
    }
    EXPECT_EQ(decoded, kRecords);
    peak = std::max(peak, residentBytes());
    // The mapped file alone is > 40 MB; a reader that kept every
    // decoded page resident would grow by about the file size.
    // The streaming cursor releases consumed pages, so growth stays
    // bounded by the release granularity plus allocator noise.
    EXPECT_LT(peak - baseline, 16u * 1024 * 1024)
        << "streaming decode must not accumulate resident pages";
    std::remove(path.c_str());
}

#endif // __linux__

} // namespace
} // namespace codic
