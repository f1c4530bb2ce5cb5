#include "secdealloc/evaluate.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <mutex>

#include "common/logging.h"
#include "common/parallel.h"
#include "dram/system.h"

namespace codic {

namespace {

DramConfig
dramFor(const DeallocEvalConfig &config)
{
    return DramConfig::ddr3_1600(config.dram_capacity_mb,
                                 config.dram_channels);
}

ControllerConfig
controllerFor(const DeallocEvalConfig &config)
{
    ControllerConfig cc;
    // Multi-channel modules interleave row blocks across channels:
    // consecutive rows round-robin banks then channels, so dealloc
    // row ops spread over every channel while one phys row block
    // still maps to exactly one DRAM row (whole-row zeroing stays
    // exact).
    if (config.dram_channels > 1)
        cc.map_scheme = MapScheme::RowChannelBankColumn;
    return cc;
}

/** The four mechanisms of every Fig. 8 / Fig. 9 comparison. */
constexpr std::array<DeallocMode, 4> kModes = {
    DeallocMode::SoftwareZero,
    DeallocMode::LisaClone,
    DeallocMode::RowClone,
    DeallocMode::CodicDet,
};

BenchmarkComparison
fromRuns(const std::string &name,
         const std::array<DeallocRunResult, 4> &runs)
{
    const DeallocRunResult &base = runs[0];
    BenchmarkComparison c;
    c.name = name;
    c.lisa_speedup = speedupOver(base, runs[1]);
    c.rowclone_speedup = speedupOver(base, runs[2]);
    c.codic_speedup = speedupOver(base, runs[3]);
    c.lisa_energy = energySavings(base, runs[1]);
    c.rowclone_energy = energySavings(base, runs[2]);
    c.codic_energy = energySavings(base, runs[3]);
    return c;
}

} // namespace

DeallocRunResult
runSingleCore(const Workload &workload, DeallocMode mode,
              const DeallocEvalConfig &config)
{
    DramSystem system(dramFor(config), controllerFor(config));
    CoreConfig core_cfg = config.core;
    core_cfg.dealloc = mode;
    InOrderCore core(system, core_cfg);
    core.bind(&workload);
    double end_ns = core.run();
    const Cycle drained = system.drainAll();
    end_ns = std::max(end_ns,
                      static_cast<double>(drained) *
                          system.config().tck_ns);

    DeallocRunResult result;
    result.time_ns = end_ns;
    result.core_stats = core.stats();
    result.commands = system.totalCounts();
    result.energy_nj = systemEnergyNj(system, end_ns, config.energy);
    return result;
}

DeallocRunResult
runMultiCore(const WorkloadMix &mix, DeallocMode mode,
             const DeallocEvalConfig &config)
{
    CODIC_ASSERT(!mix.traces.empty());
    DramSystem system(dramFor(config), controllerFor(config));

    CoreConfig core_cfg = config.core;
    core_cfg.dealloc = mode;

    // Each core gets a private physical region.
    const uint64_t region =
        static_cast<uint64_t>(system.config().capacityBytes()) /
        mix.traces.size();
    std::vector<std::unique_ptr<InOrderCore>> cores;
    for (size_t i = 0; i < mix.traces.size(); ++i) {
        cores.push_back(std::make_unique<InOrderCore>(
            system, core_cfg, region * i));
        cores[i]->bind(&mix.traces[i]);
    }

    // Discrete-event interleaving: always step the core with the
    // smallest local time so shared-system commands issue in
    // near-global-time order.
    while (true) {
        InOrderCore *next = nullptr;
        for (auto &core : cores)
            if (!core->done() &&
                (!next || core->timeNs() < next->timeNs()))
                next = core.get();
        if (!next)
            break;
        next->step();
    }

    double end_ns = 0.0;
    for (auto &core : cores)
        end_ns = std::max(end_ns, core->timeNs());
    const Cycle drained = system.drainAll();
    end_ns = std::max(end_ns,
                      static_cast<double>(drained) *
                          system.config().tck_ns);

    DeallocRunResult result;
    result.time_ns = end_ns;
    result.core_stats = cores[0]->stats();
    result.commands = system.totalCounts();
    result.energy_nj = systemEnergyNj(system, end_ns, config.energy);
    return result;
}

double
speedupOver(const DeallocRunResult &baseline,
            const DeallocRunResult &candidate)
{
    CODIC_ASSERT(candidate.time_ns > 0.0);
    return baseline.time_ns / candidate.time_ns - 1.0;
}

double
energySavings(const DeallocRunResult &baseline,
              const DeallocRunResult &candidate)
{
    CODIC_ASSERT(baseline.energy_nj > 0.0);
    return 1.0 - candidate.energy_nj / baseline.energy_nj;
}

BenchmarkComparison
compareSingleCore(const std::string &benchmark,
                  const DeallocEvalConfig &config)
{
    const Workload w =
        generateWorkload(benchmarkParams(benchmark, config.run.seed));
    std::array<DeallocRunResult, 4> runs;
    CampaignEngine engine(config.run.threads);
    engine.forEach(kModes.size(), [&](size_t m) {
        runs[m] = runSingleCore(w, kModes[m], config);
    });
    return fromRuns(benchmark, runs);
}

BenchmarkComparison
compareMultiCore(const WorkloadMix &mix, const DeallocEvalConfig &config)
{
    std::array<DeallocRunResult, 4> runs;
    CampaignEngine engine(config.run.threads);
    engine.forEach(kModes.size(), [&](size_t m) {
        runs[m] = runMultiCore(mix, kModes[m], config);
    });
    return fromRuns(mix.name, runs);
}

std::vector<BenchmarkComparison>
compareSingleCoreAll(const std::vector<std::string> &benchmarks,
                     const DeallocEvalConfig &config)
{
    // Flatten benchmark x mechanism so the engine balances the whole
    // grid instead of four runs at a time.
    std::vector<Workload> workloads;
    workloads.reserve(benchmarks.size());
    for (const auto &name : benchmarks)
        workloads.push_back(
            generateWorkload(benchmarkParams(name, config.run.seed)));

    std::vector<std::array<DeallocRunResult, 4>> runs(benchmarks.size());
    CampaignEngine engine(config.run.threads);
    engine.forEach(benchmarks.size() * kModes.size(), [&](size_t t) {
        const size_t b = t / kModes.size();
        const size_t m = t % kModes.size();
        runs[b][m] = runSingleCore(workloads[b], kModes[m], config);
    });

    std::vector<BenchmarkComparison> out;
    out.reserve(benchmarks.size());
    for (size_t b = 0; b < benchmarks.size(); ++b)
        out.push_back(fromRuns(benchmarks[b], runs[b]));
    return out;
}

std::vector<BenchmarkComparison>
compareMultiCoreAll(const std::vector<MixSpec> &specs,
                    const DeallocEvalConfig &config)
{
    // One slot per mix: the first task to reach it generates the
    // traces, the task that finishes its last mechanism frees them.
    struct Slot
    {
        std::once_flag built;
        WorkloadMix mix;
        std::atomic<size_t> left{kModes.size()};
    };
    std::vector<Slot> slots(specs.size());
    std::vector<std::array<DeallocRunResult, 4>> runs(specs.size());
    CampaignEngine engine(config.run.threads);
    engine.forEach(specs.size() * kModes.size(), [&](size_t t) {
        const size_t x = t / kModes.size();
        const size_t m = t % kModes.size();
        Slot &slot = slots[x];
        std::call_once(slot.built,
                       [&] { slot.mix = buildMix(specs[x]); });
        runs[x][m] = runMultiCore(slot.mix, kModes[m], config);
        if (--slot.left == 0)
            slot.mix = WorkloadMix();
    });

    std::vector<BenchmarkComparison> out;
    out.reserve(specs.size());
    for (size_t x = 0; x < specs.size(); ++x)
        out.push_back(fromRuns(specs[x].name, runs[x]));
    return out;
}

} // namespace codic
