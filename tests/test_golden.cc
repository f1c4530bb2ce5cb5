/**
 * @file
 * Golden-determinism suite: the four CI-pinned paper scenarios,
 * run through the same JSON sink stack codic_run uses, must produce
 * output byte-identical to bench/GOLDEN_eager_paper.json - the
 * document captured from the pre-redesign blocking MemoryService -
 * at 1 AND at 8 campaign threads. This pins the whole hot path
 * (arena ticket records, SoA bank timing state, pow2 address
 * decode) to the published numbers: a
 * refactor that moves a single byte of the eager-preset paper
 * campaigns fails here before it reaches CI's out-of-process cmp.
 */

#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/result_sink.h"
#include "scenario/registry.h"

namespace codic {
namespace {

// The scenarios and options pinned by the CI golden gate
// (.github/workflows/ci.yml): scale 0.25, default seed.
const char *const kPinnedScenarios[] = {
    "secdealloc_fig8",
    "secdealloc_fig9",
    "coldboot_table6_overhead",
    "coldboot_fig7_destruction",
};

std::string
pinnedDocumentAt(int threads)
{
    RunOptions options;
    options.scale = 0.25;
    options.threads = threads;

    std::ostringstream out;
    JsonResultSink sink(out);
    for (const char *name : kPinnedScenarios)
        EXPECT_TRUE(runScenario(name, options, sink)) << name;
    sink.finish();
    return out.str();
}

std::string
goldenFileContents()
{
    // Tests run from the build tree; CODIC_REPO_DIR points at the
    // source tree (set in CMakeLists.txt).
    const std::string path =
        std::string(CODIC_REPO_DIR) + "/bench/GOLDEN_eager_paper.json";
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "cannot open " << path;
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

TEST(GoldenPaperScenarios, ByteIdenticalAtOneThread)
{
    const std::string golden = goldenFileContents();
    ASSERT_FALSE(golden.empty());
    EXPECT_EQ(pinnedDocumentAt(1), golden)
        << "eager-preset paper output moved vs the pinned golden";
}

TEST(GoldenPaperScenarios, ByteIdenticalAtEightThreads)
{
    const std::string golden = goldenFileContents();
    ASSERT_FALSE(golden.empty());
    EXPECT_EQ(pinnedDocumentAt(8), golden)
        << "paper output depends on the thread count";
}

} // namespace
} // namespace codic
