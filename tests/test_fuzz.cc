/**
 * @file
 * Property/fuzz tests: long random-but-legal command streams through
 * the DRAM channel, random schedule classification totality, random
 * cache traffic (accesses, CLFLUSHes, range invalidations) against a
 * reference model at every simulated geometry, end-to-end determinism
 * checks, and mutation fuzzers over the enrollment-store and trace
 * formats, the --sched spec parser and whole codic_run command lines.
 * These guard the invariants DESIGN.md lists: the JEDEC checker
 * never admits an illegal issue, classification is total,
 * simulations are reproducible from seeds, and a malformed store,
 * trace, --sched spec or command line fails loudly instead of
 * crashing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "common/logging.h"
#include "common/rng.h"
#include "dram/channel.h"
#include "dram/config.h"
#include "fleet/enrollment_store.h"
#include "puf/sig_puf.h"
#include "scenario/cli.h"
#include "sim/cache.h"
#include "trace/trace_io.h"

namespace codic {
namespace {

/**
 * Random legal command-stream generator: picks any command whose
 * preconditions hold and issues it via issueAtEarliest. The checker
 * inside the channel verifies every issue; the test asserts the
 * whole stream completes without a timing panic and that tracked
 * state stays consistent.
 */
class ChannelFuzzTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(ChannelFuzzTest, RandomLegalStreamsNeverViolateTiming)
{
    DramChannel ch(DramConfig::ddr3_1600(64));
    const int sig = ch.registerVariant(variants::sig().schedule);
    const int det = ch.registerVariant(variants::detZero().schedule);
    Rng rng(GetParam());
    Cycle now = 0;

    for (int step = 0; step < 4000; ++step) {
        const int bank = static_cast<int>(rng.below(8));
        const int64_t row =
            static_cast<int64_t>(rng.below(64));
        Command cmd;
        cmd.addr.bank = bank;
        cmd.addr.row = row;
        cmd.addr.column = static_cast<int>(rng.below(128));

        if (ch.bankActive(0, bank)) {
            // Open bank: column ops on the open row, or precharge.
            switch (rng.below(4)) {
              case 0:
                cmd.type = CommandType::Rd;
                cmd.addr.row = ch.openRow(0, bank);
                break;
              case 1:
                cmd.type = CommandType::Wr;
                cmd.addr.row = ch.openRow(0, bank);
                break;
              case 2:
                cmd.type = CommandType::RowClone;
                break;
              default:
                cmd.type = CommandType::Pre;
                break;
            }
        } else {
            switch (rng.below(4)) {
              case 0:
                cmd.type = CommandType::Act;
                break;
              case 1:
                cmd.type = CommandType::Codic;
                cmd.codic_variant = rng.chance(0.5) ? sig : det;
                break;
              case 2:
                cmd.type = CommandType::Mrs;
                break;
              default: {
                // REF requires every bank precharged.
                bool all_idle = true;
                for (int b = 0; b < 8; ++b)
                    all_idle = all_idle && !ch.bankActive(0, b);
                cmd.type = all_idle ? CommandType::Ref
                                    : CommandType::Act;
                break;
              }
            }
        }
        Cycle issued = 0;
        ASSERT_NO_THROW(
            now = ch.issueAtEarliest(cmd, now, &issued))
            << "step " << step << ": " << cmd.str();
        // Monotone progress: issue times never go backwards.
        ASSERT_GE(issued, 0);
        // Occasionally jump time forward (idle periods).
        if (rng.chance(0.05))
            now += static_cast<Cycle>(rng.below(500));
    }
    EXPECT_GT(ch.counts().total(), 3000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChannelFuzzTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(ChannelFuzz, EarliestIsAlwaysLegalToIssue)
{
    // Property: whatever earliest() returns must be accepted by
    // issue() - the two must agree exactly.
    DramChannel ch(DramConfig::ddr3_1600(64));
    Rng rng(77);
    Cycle now = 0;
    for (int step = 0; step < 2000; ++step) {
        const int bank = static_cast<int>(rng.below(8));
        Command cmd;
        cmd.addr.bank = bank;
        cmd.addr.row = static_cast<int64_t>(rng.below(1024));
        if (ch.bankActive(0, bank)) {
            cmd.type = rng.chance(0.5) ? CommandType::Pre
                                       : CommandType::Rd;
            if (cmd.type == CommandType::Rd)
                cmd.addr.row = ch.openRow(0, bank);
        } else {
            cmd.type = CommandType::Act;
        }
        const Cycle earliest = ch.earliest(cmd);
        ASSERT_NO_THROW(now = ch.issue(cmd, std::max(earliest, now)));
    }
}

/** Reference cache: a map-based fully-precise model. */
class ReferenceCache
{
  public:
    ReferenceCache(uint64_t size, int ways, int line)
        : line_(line), ways_(ways),
          sets_(size / static_cast<uint64_t>(line * ways))
    {
    }

    bool
    access(uint64_t addr, bool write, uint64_t *victim, bool *dirty_evict)
    {
        const uint64_t line_addr = addr / static_cast<uint64_t>(line_);
        const uint64_t set = line_addr % sets_;
        auto &entries = sets_map_[set];
        ++tick_;
        auto it = entries.find(line_addr);
        if (it != entries.end()) {
            it->second.lru = tick_;
            it->second.dirty = it->second.dirty || write;
            return true;
        }
        *dirty_evict = false;
        if (entries.size() >= static_cast<size_t>(ways_)) {
            auto victim_it = entries.begin();
            for (auto e = entries.begin(); e != entries.end(); ++e)
                if (e->second.lru < victim_it->second.lru)
                    victim_it = e;
            if (victim_it->second.dirty) {
                *dirty_evict = true;
                *victim =
                    victim_it->first * static_cast<uint64_t>(line_);
            }
            entries.erase(victim_it);
        }
        entries[line_addr] = {tick_, write};
        return false;
    }

    bool
    flushLine(uint64_t addr)
    {
        const uint64_t line_addr = addr / static_cast<uint64_t>(line_);
        auto &entries = sets_map_[line_addr % sets_];
        auto it = entries.find(line_addr);
        if (it == entries.end())
            return false;
        const bool dirty = it->second.dirty;
        entries.erase(it);
        return dirty;
    }

    void
    invalidateRange(uint64_t addr, uint64_t bytes)
    {
        if (bytes == 0)
            return;
        const uint64_t line = static_cast<uint64_t>(line_);
        for (uint64_t l = addr / line; l * line < addr + bytes; ++l)
            flushLine(l * line);
    }

  private:
    struct Entry
    {
        uint64_t lru;
        bool dirty;
    };
    int line_;
    int ways_;
    uint64_t sets_;
    uint64_t tick_ = 0;
    std::map<uint64_t, std::map<uint64_t, Entry>> sets_map_;
};

struct CacheGeometry
{
    uint64_t bytes;
    int ways;
};

void
PrintTo(const CacheGeometry &g, std::ostream *os)
{
    *os << (g.bytes >> 10) << " KB " << g.ways << "-way";
}

class CacheFuzz : public ::testing::TestWithParam<CacheGeometry>
{
};

/**
 * Accesses mixed with CLFLUSHes and range invalidations, which punch
 * holes that later misses refill before any eviction. Addresses are
 * drawn from [base, base + 4 x capacity), so every set sees
 * evictions.
 */
void
fuzzAgainstReference(const CacheGeometry &g, uint64_t base)
{
    Cache cache(g.bytes, g.ways, 64);
    ReferenceCache ref(g.bytes, g.ways, 64);
    Rng rng(31);
    uint64_t ref_hits = 0;
    uint64_t ref_misses = 0;
    for (int i = 0; i < 200000; ++i) {
        const uint64_t addr = base + rng.below(g.bytes * 4);
        const double op = rng.uniform();
        if (op < 0.05) {
            ASSERT_EQ(cache.flushLine(addr), ref.flushLine(addr))
                << "flush " << i;
            continue;
        }
        if (op < 0.06) {
            const uint64_t bytes = rng.below(4096) + 1;
            cache.invalidateRange(addr, bytes);
            ref.invalidateRange(addr, bytes);
            continue;
        }
        const bool write = rng.chance(0.3);
        uint64_t ref_victim = 0;
        bool ref_dirty = false;
        const bool ref_hit =
            ref.access(addr, write, &ref_victim, &ref_dirty);
        ++(ref_hit ? ref_hits : ref_misses);
        const auto got = cache.access(addr, write);
        ASSERT_EQ(got.hit, ref_hit) << "access " << i;
        ASSERT_EQ(got.writeback, ref_dirty) << "access " << i;
        if (got.writeback) {
            ASSERT_EQ(got.victim_addr, ref_victim) << "access " << i;
        }
    }
    EXPECT_EQ(cache.hits(), ref_hits);
    EXPECT_EQ(cache.misses(), ref_misses);
}

TEST_P(CacheFuzz, MatchesReferenceModelOnRandomTraffic)
{
    fuzzAgainstReference(GetParam(), 0);
}

TEST_P(CacheFuzz, MatchesReferenceModelNearTopOfAddressSpace)
{
    // Tags with their top bits set: the packed tag word and the
    // victim address rebuilt from it must lose nothing.
    fuzzAgainstReference(GetParam(), 1ull << 62);
}

// The geometries the simulator builds: the core's 64 KB 4-way L1 and
// 512 KB 8-way L2 (sim/core.h), and the CacheFilter's 2 MB 16-way
// LLC; plus a direct-mapped cache and two associativities that are
// not powers of two.
INSTANTIATE_TEST_SUITE_P(Geometries, CacheFuzz,
                         ::testing::Values(CacheGeometry{64 << 10, 4},
                                           CacheGeometry{512 << 10, 8},
                                           CacheGeometry{2 << 20, 16},
                                           CacheGeometry{32 << 10, 1},
                                           CacheGeometry{48 << 10, 3},
                                           CacheGeometry{768 << 10,
                                                         12}));

TEST(ClassifyFuzz, ClassificationIsTotalAndStable)
{
    Rng rng(17);
    for (int i = 0; i < 100000; ++i) {
        SignalSchedule s;
        for (size_t sig = 0; sig < kNumSignals; ++sig) {
            if (!rng.chance(0.75))
                continue;
            const int start = static_cast<int>(rng.below(24));
            const int end =
                start + 1 +
                static_cast<int>(
                    rng.below(static_cast<uint64_t>(24 - start)));
            s.set(static_cast<Signal>(sig), start, end);
        }
        const VariantClass a = classifySchedule(s);
        const VariantClass b = classifySchedule(s);
        ASSERT_EQ(a, b);
        ASSERT_STRNE(variantClassName(a), "");
        // The latency model is total too.
        ASSERT_GE(variantLatencyNs(s), 0.0);
    }
}

TEST(DeterminismFuzz, PufCampaignsAreSeedStable)
{
    const auto chips = buildPaperPopulation(99);
    const auto chips2 = buildPaperPopulation(99);
    CodicSigPuf puf;
    for (int i = 0; i < 50; ++i) {
        Challenge ch{static_cast<uint64_t>(i * 101), 65536};
        QueryEnv env{30.0, false, static_cast<uint64_t>(i)};
        EXPECT_EQ(puf.evaluate(chips[7], ch, env),
                  puf.evaluate(chips2[7], ch, env));
    }
}

/**
 * Deterministic mutants of a small writer-built store. Each one is
 * checked through both entry points: loadBinary (full validation
 * pass) and the path constructor (O(1) open checks) followed by a
 * lookup of every originally indexed id (per-record checks). Either
 * may throw FatalError or complete; any other exception, or a crash
 * under the sanitizers, fails the test.
 */
class StoreFuzz : public ::testing::Test
{
  protected:
    static constexpr size_t kHeaderBytes = 40;

    void
    SetUp() override
    {
        path_ = (std::filesystem::temp_directory_path() /
                 "codic_test_store_fuzz.bin")
                    .string();
        EnrollmentStoreWriter writer(path_, 0xC0D1C);
        for (uint64_t id = 0; id < 5; ++id) {
            Response sig;
            for (uint32_t c = 0; c < 2 + id * 3; ++c)
                sig.cells.push_back(static_cast<uint32_t>(id + c * 97));
            writer.append(id * 7 + 1, {id, 65536}, sig);
            ids_.push_back(id * 7 + 1);
        }
        writer.finish();
        std::ifstream in(path_, std::ios::binary);
        std::stringstream bytes;
        bytes << in.rdbuf();
        image_ = bytes.str();
    }

    void TearDown() override { std::filesystem::remove(path_); }

    /** Look up every original id; true when any lookup threw. */
    bool
    lookupAll(const EnrollmentStore &store) const
    {
        bool threw = false;
        for (uint64_t id : ids_) {
            try {
                store.lookup(id);
            } catch (const FatalError &) {
                threw = true;
            }
        }
        return threw;
    }

    /** Run one mutant through both paths; true when both threw. */
    bool
    check(const std::string &mutant)
    {
        bool load_threw = false;
        try {
            std::istringstream in(mutant);
            load_threw = lookupAll(EnrollmentStore::loadBinary(in));
        } catch (const FatalError &) {
            load_threw = true;
        }
        {
            std::ofstream out(path_, std::ios::binary | std::ios::trunc);
            out.write(mutant.data(),
                      static_cast<std::streamsize>(mutant.size()));
        }
        bool mapped_threw = false;
        try {
            mapped_threw = lookupAll(EnrollmentStore(path_));
        } catch (const FatalError &) {
            mapped_threw = true;
        }
        return load_threw && mapped_threw;
    }

    /** Offsets of every record, from the image's own index. */
    std::vector<size_t>
    recordOffsets() const
    {
        std::vector<size_t> offsets;
        const size_t index = image_.size() - ids_.size() * 16;
        for (size_t i = 0; i < ids_.size(); ++i) {
            uint64_t at = 0;
            for (int b = 0; b < 8; ++b)
                at |= static_cast<uint64_t>(static_cast<uint8_t>(
                          image_[index + i * 16 + 8 + b]))
                      << (8 * b);
            offsets.push_back(static_cast<size_t>(at));
        }
        return offsets;
    }

    std::string path_;
    std::string image_;
    std::vector<uint64_t> ids_;
};

TEST_F(StoreFuzz, UnmutatedImageLoadsOnBothPaths)
{
    EXPECT_FALSE(check(image_));
    std::istringstream in(image_);
    EXPECT_EQ(EnrollmentStore::loadBinary(in).deviceIds(), ids_);
}

TEST_F(StoreFuzz, EveryTruncationThrowsOnBothPaths)
{
    for (size_t len = 0; len < image_.size(); ++len)
        EXPECT_TRUE(check(image_.substr(0, len)))
            << "truncation to " << len << " bytes was accepted";
}

TEST_F(StoreFuzz, HeaderAndIndexByteFlipsNeverCrash)
{
    const size_t index = image_.size() - ids_.size() * 16;
    std::vector<size_t> positions;
    for (size_t i = 0; i < kHeaderBytes; ++i)
        positions.push_back(i);
    for (size_t i = index; i < image_.size(); ++i)
        positions.push_back(i);
    for (size_t pos : positions)
        for (uint8_t mask : {0x01, 0x80, 0xFF}) {
            std::string mutant = image_;
            mutant[pos] = static_cast<char>(mutant[pos] ^ mask);
            check(mutant);
        }
}

TEST_F(StoreFuzz, OversizedRecordLengthsNeverCrash)
{
    // cell_count sits 20 bytes into a record, blob_len 24 bytes in.
    for (size_t offset : recordOffsets())
        for (size_t field : {offset + 20, offset + 24}) {
            std::string mutant = image_;
            for (size_t b = 0; b < 4; ++b)
                mutant[field + b] = static_cast<char>(0xFF);
            check(mutant);
        }
}

/**
 * Mutation fuzzer over the trace format: a writer-built trace with
 * three epochs and a RowOp record is truncated at every length,
 * XOR-flipped in every header and epoch-index byte, and given an
 * overlong varint. Each mutant is opened by TraceReader and, when it
 * opens, decoded by a full TraceCursor pass plus a seek to every
 * epoch. Either step may throw FatalError or complete; any other
 * exception, or a crash under the sanitizers, fails the test.
 */
class TraceFuzz : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = (std::filesystem::temp_directory_path() /
                 "codic_test_trace_fuzz.trace")
                    .string();
        TraceMeta meta;
        meta.scenario = "fuzz";
        meta.seed = 7;
        meta.epoch_stride = 4;
        {
            TraceWriter writer(path_, meta);
            for (uint64_t i = 0; i < 10; ++i) {
                TraceRecord r;
                r.kind = i % 3 == 2 ? TraceOpKind::RowOp
                                    : static_cast<TraceOpKind>(3 + i % 2);
                r.addr = 0x40000 + i * 4160;
                r.tick = 100 + i * 37;
                r.origin = i % 4;
                if (r.kind == TraceOpKind::RowOp) {
                    r.mech = 1;
                    r.reserved_row = -3;
                }
                writer.append(r);
            }
            writer.finish();
        }
        std::ifstream in(path_, std::ios::binary);
        std::stringstream bytes;
        bytes << in.rdbuf();
        image_ = bytes.str();
        // Records start where the first epoch does; the footer index
        // is a u64 epoch count plus one 24-byte entry per epoch.
        const TraceReader reader(path_);
        ASSERT_EQ(reader.epochs().size(), 3u);
        header_bytes_ =
            static_cast<size_t>(reader.epochs()[0].file_offset);
        index_offset_ = image_.size() - 8 - 3 * 24;
    }

    void TearDown() override { std::filesystem::remove(path_); }

    /** Run one mutant through the reader; true when it threw. */
    bool
    check(const std::string &mutant)
    {
        {
            std::ofstream out(path_, std::ios::binary | std::ios::trunc);
            out.write(mutant.data(),
                      static_cast<std::streamsize>(mutant.size()));
        }
        try {
            const TraceReader reader(path_);
            TraceRecord r;
            TraceCursor all = reader.cursor();
            while (all.next(r)) {
            }
            for (size_t e = 0; e < reader.epochs().size(); ++e)
                reader.seekToRecord(e * reader.meta().epoch_stride);
        } catch (const FatalError &) {
            return true;
        }
        return false;
    }

    std::string path_;
    std::string image_;
    size_t header_bytes_ = 0;
    size_t index_offset_ = 0;
};

TEST_F(TraceFuzz, UnmutatedTraceDecodes)
{
    EXPECT_FALSE(check(image_));
}

TEST_F(TraceFuzz, EveryTruncationThrows)
{
    for (size_t len = 0; len < image_.size(); ++len)
        EXPECT_TRUE(check(image_.substr(0, len)))
            << "truncation to " << len << " bytes was accepted";
}

TEST_F(TraceFuzz, HeaderAndEpochIndexByteFlipsNeverCrash)
{
    std::vector<size_t> positions;
    for (size_t i = 0; i < header_bytes_; ++i)
        positions.push_back(i);
    for (size_t i = index_offset_; i < image_.size(); ++i)
        positions.push_back(i);
    for (size_t pos : positions)
        for (uint8_t mask : {0x01, 0x80, 0xFF}) {
            std::string mutant = image_;
            mutant[pos] = static_cast<char>(mutant[pos] ^ mask);
            check(mutant);
        }
}

TEST_F(TraceFuzz, OverlongVarintThrows)
{
    // The first record's tick delta becomes ten continuation bytes.
    std::string mutant = image_;
    for (size_t b = 1; b <= 10; ++b)
        mutant[header_bytes_ + b] = static_cast<char>(0x80);
    EXPECT_TRUE(check(mutant));
    try {
        const TraceReader reader(path_);
        TraceRecord r;
        reader.cursor().next(r);
        ADD_FAILURE() << "overlong varint was decoded";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("overlong varint"),
                  std::string::npos)
            << e.what();
    }
}

// --- --sched spec fuzzing. ---

/**
 * Mutation fuzzer over SchedulerPolicy::parse: every preset and a few
 * multi-knob specs are truncated at every length, have each byte
 * replaced by spec punctuation, digits, a letter or a space, gain
 * doubled, trailing and leading commas, lose a knob's key or value,
 * and get integer values just past int range or past any integer.
 * Each mutant must parse or throw FatalError; any other exception,
 * or a crash under the sanitizers, fails the test.
 */
std::vector<std::string>
schedSeeds()
{
    std::vector<std::string> seeds = SchedulerPolicy::presetNames();
    seeds.push_back("batched:refresh=auto,refresh_postpone=4");
    seeds.push_back("serving:read_window=48,priority=off,"
                    "bank_drain_high=6,bank_drain_low=2");
    seeds.push_back("aggressive:drain_high_pct=80,drain_low_pct=20,"
                    "max_drain_batch=8,replay_batch=4,refresh=per-bank");
    seeds.push_back("eager:priority=on,refresh=off");
    return seeds;
}

/** Mutants of one spec (see schedSeeds). */
std::vector<std::string>
schedMutants(const std::string &spec)
{
    std::vector<std::string> out;
    for (size_t len = 0; len < spec.size(); ++len)
        out.push_back(spec.substr(0, len));
    for (size_t i = 0; i < spec.size(); ++i)
        for (const char c : {',', '=', ':', '-', '+', '0', '9', 'a', ' '}) {
            std::string m = spec;
            m[i] = c;
            out.push_back(m);
        }
    out.push_back("," + spec);
    out.push_back(spec + ",");
    const size_t colon = spec.find(':');
    if (colon == std::string::npos)
        return out;
    out.push_back(spec.substr(0, colon + 1) + "," + spec.substr(colon + 1));
    // Walk the knob=value items between ':' and the end.
    for (size_t start = colon + 1; start < spec.size();) {
        const size_t end = std::min(spec.find(',', start), spec.size());
        const size_t eq = spec.find('=', start);
        out.push_back(spec.substr(0, end) + "," + spec.substr(end));
        out.push_back(spec.substr(0, start) + spec.substr(eq));
        out.push_back(spec.substr(0, eq + 1) + spec.substr(end));
        for (const char *v :
             {"2147483648", "-2147483649", "99999999999999999999"})
            out.push_back(spec.substr(0, eq + 1) + v + spec.substr(end));
        start = end + 1;
    }
    return out;
}

TEST(SchedFuzz, SeedsParse)
{
    for (const std::string &spec : schedSeeds())
        EXPECT_NO_THROW(SchedulerPolicy::parse(spec)) << spec;
}

TEST(SchedFuzz, MutantsParseOrThrowFatal)
{
    size_t mutants = 0;
    size_t rejected = 0;
    for (const std::string &spec : schedSeeds()) {
        for (const std::string &mutant : schedMutants(spec)) {
            ++mutants;
            try {
                SchedulerPolicy::parse(mutant);
            } catch (const FatalError &) {
                ++rejected;
            }
        }
    }
    EXPECT_GT(mutants, 2000u);
    EXPECT_GT(rejected, mutants / 2);
    // Out-of-range integers and empty keys or values never parse.
    for (const char *bad :
         {"batched:read_window=2147483648",
          "batched:read_window=-2147483649",
          "batched:read_window=99999999999999999999", "batched:=4",
          "batched:read_window=", "batched:,read_window=4",
          "batched:read_window=4,", "batched:read_window=4,,replay_batch=2"})
        EXPECT_THROW(SchedulerPolicy::parse(bad), FatalError) << bad;
}

// --- codic_run argv fuzzing. ---

/**
 * Mutation fuzzer over parseCommandLine: the codic_run command lines
 * of the CI smoke steps, plus --list, --help and --sched help, each
 * lose, duplicate or swap an element with its neighbour, have an
 * element truncated at every length, and have an element replaced by
 * an empty, dash, zero, negative, NaN, overflowing or --help token.
 * Each mutant must parse or throw FatalError; any other exception, or
 * a crash under the sanitizers, fails the test. Parsing never writes:
 * the seeds' output files all point into a scratch directory that
 * must stay empty.
 */
class ArgvFuzz : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = std::filesystem::temp_directory_path() /
               "codic_test_argv_fuzz";
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directory(dir_);
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    /** A file in the scratch directory (never created). */
    std::string
    scratch(const std::string &name) const
    {
        return (dir_ / name).string();
    }

    std::vector<std::vector<std::string>>
    seeds() const
    {
        const std::string trace =
            std::string(CODIC_REPO_DIR) +
            "/bench/traces/ablation_scheduler_seed1.trace";
        const std::string store = scratch("fleet_store.bin");
        return {
            {"--list"},
            {"--list-md"},
            {"--help"},
            {"--sched", "help"},
            {"--sched", "list"},
            {"--preset", "list"},
            {"--scenario", "circuit_table2_latency_energy", "--out",
             scratch("table2.json"), "--csv", scratch("table2.csv"),
             "--quiet"},
            {"--scenario", "ablation_engine_parallelism", "--threads", "8",
             "--scale", "0.1", "--out", scratch("parallelism.json"),
             "--quiet"},
            {"--scenario", "fleet_mixed", "--sched", "bogus", "--quiet"},
            {"--scenario", "ablation_qos", "--scale", "0.25", "--threads",
             "8", "--out", scratch("qos_t8.json"), "--quiet"},
            {"--scenario", "ablation_scheduler", "--preset", "ddr4-2400",
             "--scale", "0.02", "--out", scratch("preset.json"), "--quiet"},
            {"--scenario", "secdealloc_fig8", "--scenario",
             "secdealloc_fig9", "--scenario", "coldboot_table6_overhead",
             "--scenario", "coldboot_fig7_destruction", "--scale", "0.25",
             "--threads", "4", "--out", scratch("golden_check.json"),
             "--quiet"},
            {"--scenario", "fleet_enroll", "--devices", "1000", "--store",
             store, "--out", scratch("fleet_enroll.json"), "--quiet"},
            {"--scenario", "fleet_auth_load", "--store", store,
             "--requests", "20000", "--out", scratch("fleet_auth.json"),
             "--quiet"},
            {"--scenario", "fleet_mixed", "--devices", "1000", "--requests",
             "20000", "--threads", "8", "--shards", "4", "--out",
             scratch("fleet_mixed_t8.json"), "--quiet"},
            {"--scenario", "fleet_scaling", "--store", store, "--scale",
             "0.25", "--threads", "8", "--out",
             scratch("scaling_store_t8.json"), "--quiet"},
            {"--scenario", "fleet_region_serving", "--regions", "3",
             "--scale", "0.25", "--out", scratch("regions.json"),
             "--quiet"},
            {"--scenario", "fleet_overload", "--shed", "-1", "--quiet"},
            {"--scenario", "fleet_scaling", "--devices", "10000000",
             "--store", scratch("fleet_10m.bin"), "--store-mmap", "--scale",
             "0.25", "--threads", "1", "--out", scratch("scaling_mmap.json"),
             "--quiet"},
            {"--scenario", "ablation_scheduler", "--scale", "0.05",
             "--threads", "1", "--record-trace", scratch("smoke.trace"),
             "--quiet", "--out", scratch("record.json")},
            {"--trace-info", trace},
            {"--trace", trace, "--threads", "8", "--out",
             scratch("trace_replay_t8.json"), "--quiet"},
            {"--trace", scratch("smoke.trace"), "--record-trace",
             scratch("smoke.trace"), "--quiet"},
            {"--trace", trace, "--trace-speed", "0", "--quiet"},
            {"--scenario", "thermal_feedback", "--scenario",
             "multicore_contention", "--scale", "0.05", "--threads", "8",
             "--out", scratch("thermal_t8.json"), "--quiet"},
            {"--scenario", "thermal_feedback", "--ambient", "200",
             "--epoch-us", "0", "--quiet"},
            {"--scenario", "multicore_contention", "--cores", "0",
             "--timings", "--quiet"},
        };
    }

    std::filesystem::path dir_;
};

/** Mutants of one argv (see ArgvFuzz). */
std::vector<std::vector<std::string>>
argvMutants(const std::vector<std::string> &args)
{
    std::vector<std::vector<std::string>> out;
    for (size_t i = 0; i < args.size(); ++i) {
        std::vector<std::string> m = args;
        m.erase(m.begin() + static_cast<std::ptrdiff_t>(i));
        out.push_back(m);
        m = args;
        m.insert(m.begin() + static_cast<std::ptrdiff_t>(i), args[i]);
        out.push_back(m);
        if (i + 1 < args.size()) {
            m = args;
            std::swap(m[i], m[i + 1]);
            out.push_back(m);
        }
        for (size_t len = 0; len < args[i].size(); ++len) {
            m = args;
            m[i].resize(len);
            out.push_back(m);
        }
        for (const char *token : {"", "-", "--", "0", "-1", "nan", "1e309",
                                  "99999999999999999999", "--help"}) {
            m = args;
            m[i] = token;
            out.push_back(m);
        }
    }
    return out;
}

/** parseCommandLine over `codic_run args...`; false when rejected. */
bool
parsesArgv(const std::vector<std::string> &args)
{
    std::vector<const char *> argv = {"codic_run"};
    for (const std::string &a : args)
        argv.push_back(a.c_str());
    try {
        parseCommandLine(static_cast<int>(argv.size()), argv.data());
    } catch (const FatalError &) {
        return false;
    }
    return true;
}

TEST_F(ArgvFuzz, MutantsParseOrThrowFatal)
{
    size_t mutants = 0;
    size_t accepted = 0;
    for (const auto &seed : seeds()) {
        parsesArgv(seed);
        for (const auto &mutant : argvMutants(seed)) {
            ++mutants;
            accepted += parsesArgv(mutant);
        }
    }
    EXPECT_GT(mutants, 4000u);
    EXPECT_GT(accepted, 0u);
    EXPECT_LT(accepted, mutants);
    EXPECT_TRUE(std::filesystem::is_empty(dir_))
        << "parsing a command line wrote a file";
}

} // namespace
} // namespace codic
