#include "scenario/fleet_population.h"

#include <sstream>

#include "common/logging.h"

namespace codic {

namespace {

/** A population served from the image of an in-memory store. */
FleetPopulation
fromStore(const FleetConfig &config, const EnrollmentStore &store)
{
    std::ostringstream bytes;
    store.saveBinary(bytes);
    return {config, "", bytes.str(), store.deviceIds()};
}

} // namespace

EnrollmentStore
FleetPopulation::open() const
{
    if (!mapped_path.empty())
        return EnrollmentStore(mapped_path);
    std::istringstream bytes(image);
    return EnrollmentStore::loadBinary(bytes);
}

RequestGenerator
FleetPopulation::generator(const TrafficConfig &traffic) const
{
    return mapped_path.empty() ? RequestGenerator(traffic, targets)
                               : RequestGenerator(traffic, config.devices);
}

FleetPopulation
enrollPopulation(const FleetConfig &config, int threads)
{
    DeviceFleet fleet(config);
    EnrollmentStore store(config.population_seed);
    enrollFleet(fleet, store, threads);
    return fromStore(config, store);
}

FleetPopulation
populationFor(const RunOptions &options, FleetConfig config,
              bool mapped_ok)
{
    if (options.store_mmap && !mapped_ok)
        fatal("fleet: --store-mmap is supported by fleet_scaling "
              "(the population-scale study); this scenario loads "
              "the store into memory");
    const std::string &path = options.store_path;
    if (path.empty())
        return enrollPopulation(config, options.threads);

    const EnrollmentStore store = options.store_mmap
                                      ? EnrollmentStore(path)
                                      : EnrollmentStore::loadFile(path);
    if (store.baseRecords() == 0)
        fatal("fleet: enrollment store '", path, "' is empty");
    // The store is authoritative: rebuild the exact population it was
    // enrolled from. Tell the user when that overrides an explicit
    // flag rather than ignoring it silently.
    if (options.devices > 0 &&
        static_cast<uint64_t>(options.devices) != store.baseRecords())
        warn("fleet: --devices ", options.devices,
             " ignored; the --store file pins the population (",
             store.baseRecords(), " enrolled devices)");
    config.population_seed = store.populationSeed();
    config.devices = store.baseLastId() + 1;
    if (!options.store_mmap)
        return fromStore(config, store);
    return FleetPopulation{config, path, {}, {}};
}

} // namespace codic
