/**
 * @file
 * Tests of the PUF framework: the 136-chip population (Table 12),
 * deterministic per-device behaviour, the three PUF implementations,
 * Jaccard metrics (Fig. 5), temperature/aging campaigns (Fig. 6),
 * exact-match authentication rates, and the Table 4 response-time
 * model.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <map>

#include <gtest/gtest.h>

#include "puf/chip_model.h"
#include "puf/experiments.h"
#include "puf/latency_puf.h"
#include "puf/prelat_puf.h"
#include "puf/response_time.h"
#include "puf/sig_puf.h"

namespace codic {
namespace {

class PopulationFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        chips_ = new std::vector<SimulatedChip>(buildPaperPopulation());
    }

    static void
    TearDownTestSuite()
    {
        delete chips_;
        chips_ = nullptr;
    }

    static std::vector<const SimulatedChip *>
    all()
    {
        std::vector<const SimulatedChip *> out;
        for (const auto &c : *chips_)
            out.push_back(&c);
        return out;
    }

    static std::vector<SimulatedChip> *chips_;
};

std::vector<SimulatedChip> *PopulationFixture::chips_ = nullptr;

// --- Population structure (paper Tables 3 and 12). ---

TEST_F(PopulationFixture, Has136Chips)
{
    EXPECT_EQ(chips_->size(), 136u);
}

TEST_F(PopulationFixture, VendorCountsMatchTable3)
{
    int a = 0;
    int b = 0;
    int c = 0;
    for (const auto &chip : *chips_) {
        switch (chip.spec().vendor) {
          case Vendor::A: ++a; break;
          case Vendor::B: ++b; break;
          case Vendor::C: ++c; break;
        }
    }
    EXPECT_EQ(a, 64);
    EXPECT_EQ(b, 40);
    EXPECT_EQ(c, 32);
}

TEST_F(PopulationFixture, VoltageSplitMatchesFig5)
{
    // 64 DDR3 chips at 1.5 V and 72 DDR3L chips at 1.35 V.
    EXPECT_EQ(filterByVoltage(*chips_, false).size(), 64u);
    EXPECT_EQ(filterByVoltage(*chips_, true).size(), 72u);
}

TEST_F(PopulationFixture, FifteenModules)
{
    std::set<std::string> modules;
    for (const auto &chip : *chips_)
        modules.insert(chip.spec().module);
    EXPECT_EQ(modules.size(), 15u);
}

TEST_F(PopulationFixture, CoverageAndFlipBandsMatchSection61)
{
    const CoverageStats s = coverageStats(*chips_);
    // Paper: 34-99 % coverage, 0.01-0.22 % flip cells.
    EXPECT_GE(s.min_coverage, 0.34);
    EXPECT_LE(s.max_coverage, 0.99);
    EXPECT_GE(s.min_flip_fraction, 0.0001);
    EXPECT_LE(s.max_flip_fraction, 0.0022);
}

TEST_F(PopulationFixture, SegmentsScaleWithCapacity)
{
    for (const auto &chip : *chips_) {
        if (chip.spec().capacity_gbit == 2.0) {
            EXPECT_EQ(chip.segments(), (2ull << 30) / 8192 * 8 / 8);
        }
        // 4 Gb chip contributes to 4 Gb x 8 / 8 KB segments.
    }
}

// --- Determinism: a chip is a stable device. ---

TEST_F(PopulationFixture, SigCellsAreDeterministicPerSegment)
{
    const SimulatedChip &chip = (*chips_)[0];
    const auto a = chip.sigCells(17, 65536);
    const auto b = chip.sigCells(17, 65536);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].index, b[i].index);
        EXPECT_EQ(a[i].stability, b[i].stability);
    }
}

TEST_F(PopulationFixture, DistinctSegmentsHaveDistinctPopulations)
{
    const SimulatedChip &chip = (*chips_)[0];
    const auto a = chip.sigCells(1, 65536);
    const auto b = chip.sigCells(2, 65536);
    size_t common = 0;
    for (const auto &ca : a)
        for (const auto &cb : b)
            if (ca.index == cb.index)
                ++common;
    EXPECT_LT(common, std::max<size_t>(1, a.size() / 8));
}

TEST_F(PopulationFixture, DistinctChipsHaveDistinctPopulations)
{
    const auto a = (*chips_)[0].sigCells(1, 65536);
    const auto b = (*chips_)[1].sigCells(1, 65536);
    size_t common = 0;
    for (const auto &ca : a)
        for (const auto &cb : b)
            if (ca.index == cb.index)
                ++common;
    EXPECT_LT(common, std::max<size_t>(1, a.size() / 8));
}

TEST_F(PopulationFixture, PrelatColumnsSharedAcrossSegmentsOfAChip)
{
    // The column-structured mechanism: two segments in the same bank
    // share most weak columns (the PreLatPUF uniqueness problem).
    const SimulatedChip &chip = (*chips_)[0];
    const auto a = chip.prelatColumns(8, 65536);  // Bank 0.
    const auto b = chip.prelatColumns(16, 65536); // Bank 0 again.
    size_t common = 0;
    for (const auto &ca : a)
        for (const auto &cb : b)
            if (ca.index == cb.index)
                ++common;
    EXPECT_GT(static_cast<double>(common),
              0.5 * static_cast<double>(std::min(a.size(), b.size())));
}

TEST_F(PopulationFixture, SigPopulationSizeTracksFlipFraction)
{
    const SimulatedChip &chip = (*chips_)[0];
    RunningStats s;
    for (uint64_t seg = 0; seg < 50; ++seg)
        s.add(static_cast<double>(chip.sigCells(seg, 65536).size()));
    const double expected = chip.sigFlipFraction() * 65536.0;
    EXPECT_NEAR(s.mean(), expected, expected * 0.5 + 2.0);
}

// --- Chip-model draw streams, pinned bit for bit. ---

/** FNV-1a over the little-endian bytes of 64-bit words. */
struct Fnv1a
{
    uint64_t h = 0xcbf29ce484222325ULL;

    void
    add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }

    void
    add(double d)
    {
        uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof bits);
        add(bits);
    }
};

TEST(ChipModel, PopulationsPinnedAcrossBits)
{
    // Every population generator over sizes that straddle the byte
    // boundaries of the position sort and reach empty and one-cell
    // populations. The hashes were captured before the position sort
    // and the latency drift draws were restructured; any change to a
    // drawn value, its order or the resulting set moves them.
    const auto chips = buildPaperPopulation();
    const int bit_sizes[] = {1,     2,     3,     255,   256,    257,
                             4096,  65535, 65536, 65537, 1 << 20};
    Fnv1a sig, sig_extra, prelat_chip, prelat, latency_30c, latency_45c;
    for (size_t c = 0; c < 8; ++c) {
        const SimulatedChip &chip = chips[c * 17];
        for (uint64_t segment :
             {uint64_t{0}, uint64_t{3}, uint64_t{1000},
              chip.segments() - 1}) {
            for (int bits : bit_sizes) {
                const auto s = chip.sigCells(segment, bits);
                sig.add(uint64_t{s.size()});
                for (const auto &cell : s) {
                    sig.add(uint64_t{cell.index});
                    sig.add(cell.stability);
                    sig.add(cell.temp_u);
                }
                const auto e = chip.sigExtraCells(segment, bits);
                sig_extra.add(uint64_t{e.size()});
                for (const auto &cell : e) {
                    sig_extra.add(uint64_t{cell.index});
                    sig_extra.add(cell.stability);
                    sig_extra.add(cell.temp_u);
                }
                const auto pc = chip.prelatChipColumns(bits);
                prelat_chip.add(uint64_t{pc.size()});
                for (const auto &col : pc) {
                    prelat_chip.add(uint64_t{col.index});
                    prelat_chip.add(col.stability);
                }
                const auto p = chip.prelatColumns(segment, bits);
                prelat.add(uint64_t{p.size()});
                for (const auto &col : p) {
                    prelat.add(uint64_t{col.index});
                    prelat.add(col.stability);
                }
                const auto l30 = chip.latencyWeakCells(segment, bits, 0.0);
                latency_30c.add(uint64_t{l30.size()});
                for (const auto &cell : l30) {
                    latency_30c.add(uint64_t{cell.index});
                    latency_30c.add(cell.strength);
                    ASSERT_EQ(cell.temp_shift, 0.0);
                }
                const auto l45 = chip.latencyWeakCells(segment, bits, 15.0);
                latency_45c.add(uint64_t{l45.size()});
                for (const auto &cell : l45) {
                    latency_45c.add(uint64_t{cell.index});
                    latency_45c.add(cell.strength);
                    latency_45c.add(cell.temp_shift);
                }
            }
        }
    }
    EXPECT_EQ(sig.h, 0x7fabf220c657599eULL);
    EXPECT_EQ(sig_extra.h, 0x34fa51b21c1a021fULL);
    EXPECT_EQ(prelat_chip.h, 0x033aecfdc2a068d5ULL);
    EXPECT_EQ(prelat.h, 0xd838c21fb886243cULL);
    EXPECT_EQ(latency_30c.h, 0x223e16a97416ed3aULL);
    EXPECT_EQ(latency_45c.h, 0xb95cab7ab604d42eULL);
}

// --- Jaccard metric. ---

TEST(Jaccard, EdgeCases)
{
    Response empty;
    Response a{{1, 2, 3}};
    Response b{{3, 4}};
    EXPECT_DOUBLE_EQ(jaccard(empty, empty), 1.0);
    EXPECT_DOUBLE_EQ(jaccard(a, a), 1.0);
    EXPECT_DOUBLE_EQ(jaccard(a, empty), 0.0);
    EXPECT_DOUBLE_EQ(jaccard(a, b), 0.25); // 1 shared, 4 in union.
}

TEST(Jaccard, DisjointSetsScoreZero)
{
    Response a{{1, 2}};
    Response b{{3, 4}};
    EXPECT_DOUBLE_EQ(jaccard(a, b), 0.0);
}

// --- PUF quality campaigns (paper Fig. 5). ---

TEST_F(PopulationFixture, SigPufIntraNearOneInterNearZero)
{
    CodicSigPuf sig;
    JaccardCampaignConfig cfg;
    cfg.pairs = 400;
    const auto r = runJaccardCampaign(sig, all(), cfg);
    EXPECT_GT(r.intraStats().mean(), 0.98);
    EXPECT_LT(r.interStats().mean(), 0.02);
}

TEST_F(PopulationFixture, LatencyPufInterNearZeroIntraDispersed)
{
    DramLatencyPuf lat;
    JaccardCampaignConfig cfg;
    cfg.pairs = 300;
    const auto r = runJaccardCampaign(lat, all(), cfg);
    EXPECT_LT(r.interStats().mean(), 0.02);
    EXPECT_GT(r.intraStats().mean(), 0.6);
    // Dispersed: visibly less repeatable than CODIC-sig.
    EXPECT_LT(r.intraStats().mean(), 0.97);
}

TEST_F(PopulationFixture, PrelatPufPoorUniqueness)
{
    PrelatPuf pre;
    JaccardCampaignConfig cfg;
    cfg.pairs = 300;
    const auto r = runJaccardCampaign(pre, all(), cfg);
    EXPECT_GT(r.intraStats().mean(), 0.98);
    // The paper's headline observation: Inter-Jaccard dispersed and
    // far from zero.
    EXPECT_GT(r.interStats().mean(), 0.25);
    EXPECT_GT(r.interStats().stddev(), 0.03);
}

TEST_F(PopulationFixture, Ddr3lSigResponsesAtLeastAsStable)
{
    CodicSigPuf sig;
    JaccardCampaignConfig cfg;
    cfg.pairs = 300;
    const auto low =
        runJaccardCampaign(sig, filterByVoltage(*chips_, true), cfg);
    const auto high =
        runJaccardCampaign(sig, filterByVoltage(*chips_, false), cfg);
    EXPECT_GE(low.intraStats().mean() + 0.005,
              high.intraStats().mean());
}

// --- Temperature (paper Fig. 6) and aging. ---

TEST_F(PopulationFixture, SigPufRobustToTemperature)
{
    CodicSigPuf sig;
    RunningStats s;
    for (double v : runTemperatureCampaign(sig, all(), 55.0, 300, {.seed = 5}))
        s.add(v);
    EXPECT_GT(s.mean(), 0.85);
}

TEST_F(PopulationFixture, PrelatPufMostRobustToTemperature)
{
    PrelatPuf pre;
    CodicSigPuf sig;
    RunningStats sp;
    for (double v : runTemperatureCampaign(pre, all(), 55.0, 300, {.seed = 5}))
        sp.add(v);
    RunningStats ss;
    for (double v : runTemperatureCampaign(sig, all(), 55.0, 300, {.seed = 5}))
        ss.add(v);
    EXPECT_GT(sp.mean(), 0.97);
    EXPECT_GE(sp.mean(), ss.mean());
}

TEST_F(PopulationFixture, LatencyPufDegradesMonotonicallyWithDelta)
{
    DramLatencyPuf lat;
    double prev = 1.1;
    for (double delta : {0.0, 15.0, 25.0, 55.0}) {
        RunningStats s;
        for (double v :
             runTemperatureCampaign(lat, all(), delta, 200, {.seed = 5}))
            s.add(v);
        EXPECT_LT(s.mean(), prev);
        prev = s.mean();
    }
    // Strong sensitivity at the extreme delta (paper Fig. 6).
    EXPECT_LT(prev, 0.45);
}

TEST_F(PopulationFixture, SigPufRobustToAging)
{
    CodicSigPuf sig;
    RunningStats s;
    for (double v : runAgingCampaign(sig, all(), 300, {.seed = 5}))
        s.add(v);
    // Paper: most Intra-Jaccard indices are 1 after aging.
    EXPECT_GT(s.mean(), 0.95);
}

// --- Authentication (paper Section 6.1.1). ---

TEST_F(PopulationFixture, NaiveAuthRatesMatchPaper)
{
    CodicSigPuf sig;
    const AuthRates rates = runAuthCampaign(sig, all(), 3000, {.seed = 11});
    // Paper: 0.64 % average false rejection, 0.00 % false acceptance.
    EXPECT_NEAR(rates.false_rejection, 0.0064, 0.006);
    EXPECT_DOUBLE_EQ(rates.false_acceptance, 0.0);
}

// --- Filters. ---

TEST_F(PopulationFixture, SigFilterMakesResponsesRepeatable)
{
    CodicSigPuf sig;
    const SimulatedChip &chip = (*chips_)[3];
    Challenge ch{42, 65536};
    const Response a = sig.evaluateFiltered(chip, ch, {30.0, false, 1});
    const Response b = sig.evaluateFiltered(chip, ch, {30.0, false, 2});
    EXPECT_EQ(a, b);
}

TEST_F(PopulationFixture, LatencyFilterSelectsHighProbabilityCells)
{
    DramLatencyPuf lat;
    const SimulatedChip &chip = (*chips_)[3];
    Challenge ch{42, 65536};
    const Response filtered =
        lat.evaluateFiltered(chip, ch, {30.0, false, 1});
    const Response raw = lat.evaluate(chip, ch, {30.0, false, 1});
    // The filter is selective: it keeps a strict subset scale.
    EXPECT_LT(filtered.size(), raw.size());
    EXPECT_GT(filtered.size(), 0u);
}

// --- Latency PUF read filter vs a per-cell reference. ---
//
// The PUF walks its cells in Box-Muller pairs and rejects a pair of
// below-cap cells before the transform. The reference is the direct
// model: one exp and one sqrt per cell, gaussian(mean, sd) per cell,
// over the fully drawn population.

double
referenceFailureProbability(const LatencyPufParams &p,
                            const LatencyWeakCell &cell, double temp)
{
    const double dt = temp - 30.0;
    const double theta = p.theta_30c + p.theta_per_c * dt;
    const double strength =
        cell.strength + cell.temp_shift * p.temp_shift_sigma * (dt / 55.0);
    const double z = (theta - strength) / p.width;
    return 1.0 / (1.0 + std::exp(-z));
}

std::vector<LatencyWeakCell>
referenceLatencyCells(const SimulatedChip &chip, const Challenge &ch)
{
    // A nonzero dt draws every drift, whatever the query temperature.
    return chip.latencyWeakCells(ch.segment_id, ch.segment_bits, 1.0);
}

Response
referenceLatencyEvaluate(const LatencyPufParams &p, const SimulatedChip &chip,
                         const Challenge &ch, const QueryEnv &env)
{
    Rng noise = chip.domainRng(0x1A7, env.nonce ^ 0x5c4d);
    Response r;
    for (const auto &cell : referenceLatencyCells(chip, ch))
        if (noise.chance(
                referenceFailureProbability(p, cell, env.temperature_c)))
            r.cells.push_back(cell.index);
    return r;
}

Response
referenceLatencyFiltered(const LatencyPufParams &p,
                         const SimulatedChip &chip, const Challenge &ch,
                         const QueryEnv &env)
{
    Rng noise = chip.domainRng(0x1A7F, env.nonce ^ 0x77aa);
    Response r;
    for (const auto &cell : referenceLatencyCells(chip, ch)) {
        const double prob =
            referenceFailureProbability(p, cell, env.temperature_c);
        const double n = static_cast<double>(p.reads);
        const double mean = n * prob;
        const double sd =
            std::sqrt(std::max(n * prob * (1.0 - prob), 1e-12));
        const int failures =
            static_cast<int>(std::llround(noise.gaussian(mean, sd)));
        if (failures > p.filter_threshold)
            r.cells.push_back(cell.index);
    }
    return r;
}

TEST_F(PopulationFixture, LatencyPufMatchesPerCellReference)
{
    // The puf_ablation_filter read counts (threshold 0.9 x reads) plus
    // the defaults, at a narrow and a wide logistic width.
    std::vector<LatencyPufParams> grid;
    for (double width : {0.02, 0.3}) {
        LatencyPufParams defaults;
        defaults.width = width;
        grid.push_back(defaults);
        for (int reads : {5, 10, 25, 50, 100}) {
            LatencyPufParams p = defaults;
            p.reads = reads;
            p.filter_threshold = reads * 9 / 10;
            grid.push_back(p);
        }
    }

    Rng rng(31415);
    size_t skipped = 0;           // Pairs rejected before the transform.
    size_t transformed_below = 0; // Transformed pairs with a capped cell.
    size_t kept = 0;
    for (const LatencyPufParams &p : grid) {
        const DramLatencyPuf puf(p);
        ASSERT_LT(puf.filterLogitCap(),
                  std::numeric_limits<double>::infinity());
        for (double temp : {-10.0, 0.0, 30.0, 30.5, 45.0, 85.0, 125.0}) {
            for (bool aged : {false, true}) {
                for (int draw = 0; draw < 6; ++draw) {
                    const SimulatedChip &chip =
                        (*chips_)[rng.below(chips_->size())];
                    const Challenge ch{rng.below(chip.segments()), 65536};
                    const QueryEnv env{temp, aged, rng.next64()};
                    SCOPED_TRACE(testing::Message()
                                 << "reads " << p.reads << " width "
                                 << p.width << " temp " << temp << " chip "
                                 << chip.spec().seed << " segment "
                                 << ch.segment_id);
                    ASSERT_EQ(puf.evaluate(chip, ch, env),
                              referenceLatencyEvaluate(p, chip, ch, env));
                    const Response got = puf.evaluateFiltered(chip, ch, env);
                    ASSERT_EQ(got,
                              referenceLatencyFiltered(p, chip, ch, env));
                    kept += got.size();

                    // Classify each noise pair the way the PUF walks them.
                    const auto cells = referenceLatencyCells(chip, ch);
                    Rng noise = chip.domainRng(0x1A7F, env.nonce ^ 0x77aa);
                    for (size_t k = 0; k < cells.size(); k += 2) {
                        const double z_cos = noise.gaussian();
                        const double z_sin = noise.gaussian();
                        const size_t last = std::min(k + 1, cells.size() - 1);
                        size_t below = 0;
                        for (size_t i = k; i <= last; ++i)
                            below += puf.failureLogit(cells[i], temp) <
                                     puf.filterLogitCap();
                        if (below == last - k + 1 &&
                            std::hypot(z_cos, z_sin) < 4.0)
                            ++skipped;
                        else if (below > 0)
                            ++transformed_below;
                    }
                }
            }
        }
    }
    EXPECT_GT(skipped, 0u);
    EXPECT_GT(transformed_below, 0u);
    EXPECT_GT(kept, 0u);
}

// --- Majority filter vs a per-pass reference. ---
//
// The PUFs build the cell population once per query and vote over it
// in a flat array. The reference below is the straightforward model:
// every pass re-derives the population, filters it, appends the
// temperature extras and sorts; a std::map counts the votes.

Response
referenceSigEvaluate(const SigPufParams &p, const SimulatedChip &chip,
                     const Challenge &ch, const QueryEnv &env)
{
    const double dt = std::max(0.0, env.temperature_c - 30.0);
    const double dropout = p.temp_dropout_at_55c * (dt / 55.0) +
                           (env.aged ? p.aging_dropout : 0.0);
    const double growth = p.temp_growth_at_55c * (dt / 55.0);
    const double marginal = chip.spec().ddr3l ? p.ddr3l_marginal_fraction
                                              : p.marginal_fraction;
    Rng noise = chip.domainRng(0x51F, env.nonce ^ 0x9e37);
    Response r;
    for (const auto &cell : chip.sigCells(ch.segment_id, ch.segment_bits)) {
        if (cell.temp_u < dropout)
            continue;
        if (cell.stability < marginal && noise.chance(0.5))
            continue;
        r.cells.push_back(cell.index);
    }
    if (growth > 0.0) {
        for (const auto &cell :
             chip.sigExtraCells(ch.segment_id, ch.segment_bits))
            if (cell.temp_u < growth * 12.5)
                r.cells.push_back(cell.index);
    }
    std::sort(r.cells.begin(), r.cells.end());
    r.cells.erase(std::unique(r.cells.begin(), r.cells.end()),
                  r.cells.end());
    return r;
}

Response
referencePrelatEvaluate(const PrelatPufParams &p, const SimulatedChip &chip,
                        const Challenge &ch, const QueryEnv &env)
{
    const double dt = std::max(0.0, env.temperature_c - 30.0);
    const double dropout =
        p.temp_dropout_at_55c * (dt / 55.0) + (env.aged ? 0.004 : 0.0);
    Rng noise = chip.domainRng(0x9E1, env.nonce ^ 0x1357);
    Response r;
    for (const auto &col :
         chip.prelatColumns(ch.segment_id, ch.segment_bits)) {
        if (col.stability < dropout)
            continue;
        if (col.stability < p.marginal_fraction && noise.chance(0.5))
            continue;
        r.cells.push_back(col.index);
    }
    std::sort(r.cells.begin(), r.cells.end());
    return r;
}

/** Map majority over `passes` evaluations with the PUF's pass nonces. */
template <typename Eval>
Response
referenceMajority(Eval evaluate, const QueryEnv &env, int passes,
                  uint64_t nonce_mul)
{
    std::map<uint32_t, int> votes;
    for (int i = 0; i < passes; ++i) {
        QueryEnv e = env;
        e.nonce = env.nonce * nonce_mul + static_cast<uint64_t>(i) + 1;
        for (uint32_t c : evaluate(e).cells)
            ++votes[c];
    }
    Response r;
    for (const auto &[cell, count] : votes)
        if (count * 2 > passes)
            r.cells.push_back(cell);
    return r;
}

bool
strictlyIncreasing(const Response &r)
{
    return std::adjacent_find(r.cells.begin(), r.cells.end(),
                              std::greater_equal<uint32_t>()) ==
           r.cells.end();
}

TEST_F(PopulationFixture, FilteredVoteMatchesMapReference)
{
    // Default parameters, plus a noisy variant whose marginal
    // fractions make split votes common, so the vote count and not
    // only the deterministic dropout decides the response.
    SigPufParams sig_noisy;
    sig_noisy.marginal_fraction = 0.3;
    sig_noisy.ddr3l_marginal_fraction = 0.2;
    PrelatPufParams prelat_noisy;
    prelat_noisy.marginal_fraction = 0.3;

    Rng rng(2718);
    size_t extra_only = 0;  // Filtered sig cells outside sigCells().
    size_t split = 0;       // Filtered responses != first pass.
    for (int passes = 1; passes <= 8; ++passes) {
        for (double temp : {30.0, 45.0, 85.0}) {
            for (bool aged : {false, true}) {
                for (int draw = 0; draw < 4; ++draw) {
                    // Alternate voltage classes: DDR3 then DDR3L.
                    const auto subset =
                        filterByVoltage(*chips_, draw % 2 == 1);
                    const SimulatedChip &chip =
                        *subset[rng.below(subset.size())];
                    const Challenge ch{rng.below(chip.segments()), 65536};
                    const QueryEnv env{temp, aged, rng.next64()};
                    SCOPED_TRACE(testing::Message()
                                 << "passes " << passes << " temp " << temp
                                 << " aged " << aged << " chip "
                                 << chip.spec().seed << " segment "
                                 << ch.segment_id);

                    for (SigPufParams p : {SigPufParams{}, sig_noisy}) {
                        p.filter_challenges = passes;
                        const CodicSigPuf puf(p);
                        const auto ref = [&](const QueryEnv &e) {
                            return referenceSigEvaluate(p, chip, ch, e);
                        };
                        const Response raw = puf.evaluate(chip, ch, env);
                        const Response got =
                            puf.evaluateFiltered(chip, ch, env);
                        ASSERT_EQ(raw, ref(env));
                        ASSERT_EQ(got,
                                  referenceMajority(ref, env, passes,
                                                    1000003ULL));
                        ASSERT_TRUE(strictlyIncreasing(raw));
                        ASSERT_TRUE(strictlyIncreasing(got));
                        const auto base =
                            chip.sigCells(ch.segment_id, ch.segment_bits);
                        for (uint32_t c : got.cells)
                            extra_only += std::none_of(
                                base.begin(), base.end(),
                                [c](const SigCell &s) {
                                    return s.index == c;
                                });
                        split += got != raw;
                    }

                    for (PrelatPufParams p :
                         {PrelatPufParams{}, prelat_noisy}) {
                        p.filter_challenges = passes;
                        const PrelatPuf puf(p);
                        const auto ref = [&](const QueryEnv &e) {
                            return referencePrelatEvaluate(p, chip, ch, e);
                        };
                        const Response raw = puf.evaluate(chip, ch, env);
                        const Response got =
                            puf.evaluateFiltered(chip, ch, env);
                        ASSERT_EQ(raw, ref(env));
                        ASSERT_EQ(got,
                                  referenceMajority(ref, env, passes,
                                                    1000033ULL));
                        ASSERT_TRUE(strictlyIncreasing(raw));
                        ASSERT_TRUE(strictlyIncreasing(got));
                        split += got != raw;
                    }

                    const DramLatencyPuf lat;
                    ASSERT_TRUE(
                        strictlyIncreasing(lat.evaluate(chip, ch, env)));
                    ASSERT_TRUE(strictlyIncreasing(
                        lat.evaluateFiltered(chip, ch, env)));
                }
            }
        }
    }
    // Both the temperature-extra merge and the vote itself were
    // exercised, not only the deterministic paths.
    EXPECT_GT(extra_only, 0u);
    EXPECT_GT(split, 0u);
}

TEST(PufPasses, PassCountsMatchMechanisms)
{
    EXPECT_EQ(CodicSigPuf().passesPerEvaluation(false), 1);
    EXPECT_EQ(CodicSigPuf().passesPerEvaluation(true), 5);
    EXPECT_EQ(PrelatPuf().passesPerEvaluation(true), 5);
    EXPECT_EQ(DramLatencyPuf().passesPerEvaluation(true), 100);
}

// --- Response time (paper Table 4). ---

TEST(ResponseTime, Table4SoftMcValues)
{
    const DramConfig cfg = DramConfig::ddr3_1600(2048);
    const auto lat = evaluationTime(PufKind::Latency, true, cfg);
    const auto pre_f = evaluationTime(PufKind::Prelat, true, cfg);
    const auto pre_u = evaluationTime(PufKind::Prelat, false, cfg);
    const auto sig_f = evaluationTime(PufKind::CodicSig, true, cfg);
    const auto sig_u = evaluationTime(PufKind::CodicSig, false, cfg);
    EXPECT_NEAR(lat.softmc_ms, 88.2, 0.1);
    EXPECT_NEAR(pre_f.softmc_ms, 7.95, 0.05);
    EXPECT_NEAR(pre_u.softmc_ms, 1.59, 0.02);
    EXPECT_NEAR(sig_f.softmc_ms, 4.41, 0.02);
    EXPECT_NEAR(sig_u.softmc_ms, 0.88, 0.01);
}

TEST(ResponseTime, PaperRatiosHold)
{
    const DramConfig cfg = DramConfig::ddr3_1600(2048);
    const auto lat = evaluationTime(PufKind::Latency, true, cfg);
    const auto pre = evaluationTime(PufKind::Prelat, true, cfg);
    const auto sig = evaluationTime(PufKind::CodicSig, true, cfg);
    const auto sig_u = evaluationTime(PufKind::CodicSig, false, cfg);
    // 20x/100x vs the Latency PUF; 1.8x vs PreLatPUF.
    EXPECT_NEAR(lat.softmc_ms / sig.softmc_ms, 20.0, 0.5);
    EXPECT_NEAR(lat.softmc_ms / sig_u.softmc_ms, 100.0, 2.0);
    EXPECT_NEAR(pre.softmc_ms / sig.softmc_ms, 1.8, 0.05);
}

TEST(ResponseTime, NativeTimesOrderTheSameWay)
{
    const DramConfig cfg = DramConfig::ddr3_1600(2048);
    const auto lat = evaluationTime(PufKind::Latency, true, cfg);
    const auto pre = evaluationTime(PufKind::Prelat, true, cfg);
    const auto sig = evaluationTime(PufKind::CodicSig, true, cfg);
    EXPECT_GT(lat.native_ns, pre.native_ns);
    EXPECT_GT(pre.native_ns, sig.native_ns);
}

TEST(ResponseTime, SigOptFasterThanSigNatively)
{
    const DramConfig cfg = DramConfig::ddr3_1600(2048);
    const auto opt = evaluationTime(PufKind::CodicSigOpt, false, cfg);
    const auto sig = evaluationTime(PufKind::CodicSig, false, cfg);
    EXPECT_LT(opt.native_ns, sig.native_ns);
}

} // namespace
} // namespace codic
