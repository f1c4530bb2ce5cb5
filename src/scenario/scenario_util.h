/**
 * @file
 * Small helpers shared by the builtin scenario implementations.
 */

#ifndef CODIC_SCENARIO_SCENARIO_UTIL_H
#define CODIC_SCENARIO_SCENARIO_UTIL_H

#include <cstdint>
#include <vector>

#include "common/run_options.h"
#include "dram/config.h"
#include "puf/chip_model.h"

namespace codic {

/**
 * Campaign seed derived from the user seed and a scenario-historical
 * base: the default `--seed 1` reproduces exactly the seeds the
 * pre-registry bench binaries hardcoded (so published numbers do not
 * move), while any other seed shifts every campaign deterministically.
 */
inline uint64_t
paperSeed(const RunOptions &options, uint64_t historical)
{
    return options.seed - 1 + historical;
}

/**
 * Scheduler policy selected by --sched: a full spec (preset name
 * plus optional ":knob=value,..." overrides - see
 * SchedulerPolicy::parse), or the scenario's own default preset when
 * no spec was given. Unknown presets or knobs are fatal
 * (`codic_run --sched help` lists them).
 */
inline SchedulerPolicy
schedulerFor(const RunOptions &options, const char *scenario_default)
{
    return SchedulerPolicy::parse(
        options.sched.empty() ? scenario_default : options.sched);
}

/**
 * DRAM module built from the run options: the --preset speed grade
 * (scenario default when none was given - the paper campaigns
 * default to the published ddr3-1600 baseline) sized to the given
 * capacity/channels/ranks. Unknown preset names are fatal.
 */
inline DramConfig
moduleFor(const RunOptions &options, int64_t capacity_mb,
          int channels, int ranks = 1)
{
    return DramConfig::preset(options.dram_preset.empty()
                                  ? "ddr3-1600"
                                  : options.dram_preset,
                              capacity_mb, channels, ranks);
}

/** num / den, or 0 for an empty denominator. */
inline double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Latency samples (cycles) converted to microseconds. */
inline std::vector<double>
latenciesUs(const DramConfig &cfg, const std::vector<Cycle> &cycles)
{
    std::vector<double> us;
    us.reserve(cycles.size());
    for (const Cycle c : cycles)
        us.push_back(cfg.cyclesToNs(c) / 1e3);
    return us;
}

/** Pointer view over a chip population (campaign call convention). */
inline std::vector<const SimulatedChip *>
chipPtrs(const std::vector<SimulatedChip> &chips)
{
    std::vector<const SimulatedChip *> out;
    out.reserve(chips.size());
    for (const auto &c : chips)
        out.push_back(&c);
    return out;
}

} // namespace codic

#endif // CODIC_SCENARIO_SCENARIO_UTIL_H
