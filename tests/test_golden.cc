/**
 * @file
 * Golden-determinism suite: the CI-pinned scenario sets, run through
 * the same JSON sink stack codic_run uses, must produce output
 * byte-identical to their golden documents at 1 AND at 8 campaign
 * threads: the four eager-preset paper scenarios against
 * bench/GOLDEN_eager_paper.json (captured from the pre-redesign
 * blocking MemoryService), and the five PUF campaigns against
 * bench/GOLDEN_puf.json (captured before the majority filter voted
 * over one shared cell population). This pins the whole hot path
 * (arena ticket records, SoA bank timing state, pow2 address
 * decode, PUF cell populations and noise streams) to the published
 * numbers: a refactor that moves a single byte of a pinned campaign
 * fails here before it reaches CI's out-of-process cmp.
 */

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/result_sink.h"
#include "scenario/registry.h"

namespace codic {
namespace {

// The scenario sets and options pinned by the CI golden gate
// (.github/workflows/ci.yml), default seed.
struct PinnedSet
{
    std::vector<const char *> scenarios;
    double scale;
    const char *golden; //!< Path relative to the repo root.
};

// The eager-preset paper campaigns at scale 0.25.
const PinnedSet kEagerPaper = {{"secdealloc_fig8", "secdealloc_fig9",
                                "coldboot_table6_overhead",
                                "coldboot_fig7_destruction"},
                               0.25,
                               "bench/GOLDEN_eager_paper.json"};

// The PUF quality, temperature, aging, authentication and filter
// campaigns at scale 0.1: they pin every RNG stream and the majority
// filter of the three PUF models.
const PinnedSet kPuf = {{"puf_fig5_jaccard", "puf_fig6_temperature",
                         "puf_aging", "puf_auth", "puf_ablation_filter"},
                        0.1,
                        "bench/GOLDEN_puf.json"};

std::string
pinnedDocumentAt(const PinnedSet &set, int threads)
{
    RunOptions options;
    options.scale = set.scale;
    options.threads = threads;

    std::ostringstream out;
    JsonResultSink sink(out);
    for (const char *name : set.scenarios)
        EXPECT_TRUE(runScenario(name, options, sink)) << name;
    sink.finish();
    return out.str();
}

std::string
goldenFileContents(const PinnedSet &set)
{
    // Tests run from the build tree; CODIC_REPO_DIR points at the
    // source tree (set in CMakeLists.txt).
    const std::string path = std::string(CODIC_REPO_DIR) + "/" + set.golden;
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "cannot open " << path;
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

TEST(GoldenPaperScenarios, ByteIdenticalAtOneThread)
{
    const std::string golden = goldenFileContents(kEagerPaper);
    ASSERT_FALSE(golden.empty());
    EXPECT_EQ(pinnedDocumentAt(kEagerPaper, 1), golden)
        << "eager-preset paper output moved vs the pinned golden";
}

TEST(GoldenPaperScenarios, ByteIdenticalAtEightThreads)
{
    const std::string golden = goldenFileContents(kEagerPaper);
    ASSERT_FALSE(golden.empty());
    EXPECT_EQ(pinnedDocumentAt(kEagerPaper, 8), golden)
        << "paper output depends on the thread count";
}

TEST(GoldenPufScenarios, ByteIdenticalAtOneThread)
{
    const std::string golden = goldenFileContents(kPuf);
    ASSERT_FALSE(golden.empty());
    EXPECT_EQ(pinnedDocumentAt(kPuf, 1), golden)
        << "PUF campaign output moved vs the pinned golden";
}

TEST(GoldenPufScenarios, ByteIdenticalAtEightThreads)
{
    const std::string golden = goldenFileContents(kPuf);
    ASSERT_FALSE(golden.empty());
    EXPECT_EQ(pinnedDocumentAt(kPuf, 8), golden)
        << "PUF campaign output depends on the thread count";
}

} // namespace
} // namespace codic
