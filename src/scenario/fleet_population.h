/**
 * @file
 * The enrolled population of a fleet study: the one way every fleet
 * scenario gets its population, and a fresh store per sweep point.
 */

#ifndef CODIC_SCENARIO_FLEET_POPULATION_H
#define CODIC_SCENARIO_FLEET_POPULATION_H

#include <string>
#include <vector>

#include "common/run_options.h"
#include "fleet/auth_service.h"

namespace codic {

/**
 * An enrolled population and its store image. Serving mutates a
 * store through re-enrollments, so each sweep point open()s a fresh
 * store over the same image instead of enrolling again.
 */
struct FleetPopulation
{
    FleetConfig config;
    std::string mapped_path; //!< Mapped --store file, or "".
    std::string image;       //!< v2 bytes when not mapped.

    /**
     * Enrolled ids, ascending. Empty for a mapped store: its id list
     * would cost the memory the mapped path exists to avoid, so
     * requests target [0, config.devices) instead.
     */
    std::vector<uint64_t> targets;

    /** A fresh store: an O(1) mapping, else a load of the image. */
    EnrollmentStore open() const;

    /** A request generator over the enrolled population. */
    RequestGenerator generator(const TrafficConfig &traffic) const;
};

/** Enroll the whole population of `config` in memory. */
FleetPopulation enrollPopulation(const FleetConfig &config, int threads);

/**
 * The population of a run. A --store file pins it: the store's
 * population seed, and its last device id + 1 as the device count (a
 * disagreeing --devices is ignored with a warning). The file is
 * mapped under --store-mmap, which only `mapped_ok` callers accept,
 * and loaded otherwise. Without --store, `config` is enrolled.
 */
FleetPopulation populationFor(const RunOptions &options,
                              FleetConfig config,
                              bool mapped_ok = false);

} // namespace codic

#endif // CODIC_SCENARIO_FLEET_POPULATION_H
