/**
 * @file
 * Tests of the secure-deallocation evaluation (paper Appendix A,
 * Figs. 8 and 9): hardware mechanisms beat the software baseline on
 * time and energy for every allocation-intensive benchmark, single-
 * and multi-core.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "secdealloc/evaluate.h"

namespace codic {
namespace {

TEST(Metrics, SpeedupAndSavingsMath)
{
    DeallocRunResult base;
    base.time_ns = 200.0;
    base.energy_nj = 100.0;
    DeallocRunResult fast;
    fast.time_ns = 100.0;
    fast.energy_nj = 80.0;
    EXPECT_DOUBLE_EQ(speedupOver(base, fast), 1.0);
    EXPECT_DOUBLE_EQ(energySavings(base, fast), 0.2);
}

class SingleCoreBenchTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SingleCoreBenchTest, HardwareBeatsSoftwareOnTimeAndEnergy)
{
    const auto c = compareSingleCore(GetParam());
    // Paper Fig. 8: all hardware approaches improve performance (up
    // to 21 %) and energy (up to 34 %) over software zeroing.
    EXPECT_GT(c.codic_speedup, 0.02);
    EXPECT_LT(c.codic_speedup, 0.25);
    EXPECT_GT(c.rowclone_speedup, 0.02);
    EXPECT_GT(c.lisa_speedup, 0.02);
    EXPECT_GT(c.codic_energy, 0.05);
    EXPECT_LT(c.codic_energy, 0.45);
    // CODIC never loses to the clone mechanisms.
    EXPECT_GE(c.codic_energy + 1e-9, c.rowclone_energy);
    EXPECT_GE(c.rowclone_energy + 1e-9, c.lisa_energy);
    EXPECT_GE(c.codic_speedup + 0.002, c.rowclone_speedup);
    EXPECT_GE(c.codic_speedup + 0.002, c.lisa_speedup);
}

INSTANTIATE_TEST_SUITE_P(
    Table8, SingleCoreBenchTest,
    ::testing::Values("mysql", "memcached", "compiler", "bootup",
                      "shell", "malloc"));

TEST(SingleCore, MallocIsTheMostAllocationBound)
{
    const auto stress = compareSingleCore("malloc");
    const auto gcc = compareSingleCore("compiler");
    EXPECT_GT(stress.codic_speedup, gcc.codic_speedup);
}

TEST(SingleCore, RunReportsConsistentStats)
{
    const Workload w =
        generateWorkload(benchmarkParams("shell", 11));
    const auto sw = runSingleCore(w, DeallocMode::SoftwareZero);
    const auto hw = runSingleCore(w, DeallocMode::CodicDet);
    EXPECT_GT(sw.core_stats.dealloc_lines_zeroed, 0u);
    EXPECT_EQ(hw.core_stats.dealloc_lines_zeroed, 0u);
    EXPECT_GT(hw.core_stats.dealloc_rows, 0u);
    EXPECT_EQ(hw.commands.codic, hw.core_stats.dealloc_rows);
    EXPECT_GT(sw.time_ns, hw.time_ns);
}

TEST(MultiCore, MixesImproveUnderHardwareDealloc)
{
    const auto mixes = representativeMixes(77);
    const auto c = compareMultiCore(mixes[0]);
    // Paper Fig. 9: positive but smaller than single-core (only two
    // of four cores deallocate).
    EXPECT_GT(c.codic_speedup, 0.01);
    EXPECT_LT(c.codic_speedup, 0.20);
    EXPECT_GT(c.codic_energy, 0.03);
}

TEST(MultiCore, AllRepresentativeMixesImprove)
{
    for (const auto &mix : representativeMixes(42)) {
        const auto c = compareMultiCore(mix);
        EXPECT_GT(c.codic_speedup, 0.0) << mix.name;
        EXPECT_GT(c.rowclone_speedup, 0.0) << mix.name;
        EXPECT_GT(c.lisa_speedup, 0.0) << mix.name;
        EXPECT_GT(c.codic_energy, 0.0) << mix.name;
    }
}

TEST(MultiCore, CompareMultiCoreAllFromSpecsBitIdentical)
{
    const auto bits = [](double v) {
        uint64_t u;
        std::memcpy(&u, &v, sizeof u);
        return u;
    };
    const std::vector<MixSpec> specs = {representativeMixSpecs(9)[1],
                                        randomMixSpecs(1, 9)[0]};
    std::vector<BenchmarkComparison> want;
    for (const auto &spec : specs)
        want.push_back(compareMultiCore(buildMix(spec)));
    for (int threads : {1, 4}) {
        DeallocEvalConfig cfg;
        cfg.run.threads = threads;
        const auto all = compareMultiCoreAll(specs, cfg);
        ASSERT_EQ(all.size(), specs.size());
        for (size_t i = 0; i < specs.size(); ++i) {
            const auto &one = want[i];
            const auto &got = all[i];
            EXPECT_EQ(got.name, one.name);
            EXPECT_EQ(bits(got.lisa_speedup), bits(one.lisa_speedup));
            EXPECT_EQ(bits(got.rowclone_speedup),
                      bits(one.rowclone_speedup));
            EXPECT_EQ(bits(got.codic_speedup), bits(one.codic_speedup));
            EXPECT_EQ(bits(got.lisa_energy), bits(one.lisa_energy));
            EXPECT_EQ(bits(got.rowclone_energy),
                      bits(one.rowclone_energy));
            EXPECT_EQ(bits(got.codic_energy), bits(one.codic_energy));
        }
    }
}

TEST(MultiCore, SharedChannelSlowsIndividualCores)
{
    // The same trace takes longer per core when three other cores
    // contend for the channel.
    const auto mixes = representativeMixes(5);
    const auto mc =
        runMultiCore(mixes[0], DeallocMode::SoftwareZero);
    const auto sc =
        runSingleCore(mixes[0].traces[0], DeallocMode::SoftwareZero);
    EXPECT_GT(mc.time_ns, sc.time_ns);
}

} // namespace
} // namespace codic
