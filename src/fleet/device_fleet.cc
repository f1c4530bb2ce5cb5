#include "fleet/device_fleet.h"

#include <algorithm>

#include "common/logging.h"
#include "fleet/region.h"

namespace codic {

namespace {

// Domain tags for per-device derived streams (distinct from the
// SimulatedChip-internal domains, which hash the chip seed).
constexpr uint64_t kDomainIdentity = 0xF1EE7001;
constexpr uint64_t kDomainChallenge = 0xF1EE7002;
constexpr uint64_t kDomainEnrollNonce = 0xF1EE7003;

} // namespace

DeviceFleet::DeviceFleet(const FleetConfig &config)
    : config_(config), puf_(config.sig_params)
{
    CODIC_ASSERT(config_.devices > 0);
    CODIC_ASSERT(config_.shards >= 1);
    CODIC_ASSERT(config_.segment_bits > 0);
    CODIC_ASSERT(config_.trng_segment_bits > 0);
    config_.dram.validate();
    shards_.resize(static_cast<size_t>(config_.shards));
}

int
DeviceFleet::shardOf(uint64_t device_id) const
{
    if (config_.shard_selector) {
        const int shard = config_.shard_selector->shardOf(
            device_id, config_.shards);
        CODIC_ASSERT(shard >= 0 && shard < config_.shards,
                     "shard selector out of range");
        return shard;
    }
    return static_cast<int>(device_id %
                            static_cast<uint64_t>(config_.shards));
}

uint64_t
DeviceFleet::deviceSeed(uint64_t device_id) const
{
    // A fresh root per call keeps the derivation a pure function of
    // (population_seed, device_id) - no sequential fork chain that
    // would tie a device's identity to who was instantiated before it.
    Rng root(config_.population_seed ^ kDomainIdentity);
    return root.fork(device_id).next64();
}

const SimulatedChip &
DeviceFleet::device(uint64_t device_id)
{
    CODIC_ASSERT(device_id < config_.devices);
    Shard &shard = shards_[static_cast<size_t>(shardOf(device_id))];
    auto it = shard.chips.find(device_id);
    if (it != shard.chips.end())
        return it->second;

    // Derive the chip's spec from the device seed alone: vendor and
    // voltage class mix like the paper's Table 12 population.
    const uint64_t seed = deviceSeed(device_id);
    Rng rng(seed);
    ChipSpec spec;
    spec.vendor = static_cast<Vendor>(rng.below(3));
    spec.ddr3l = rng.chance(0.25);
    spec.capacity_gbit = 4.0;
    spec.freq_mts = spec.vendor == Vendor::B ? 1333 : 1600;
    spec.module = "fleet";
    spec.seed = seed;
    return shard.chips.emplace(device_id, SimulatedChip(spec))
        .first->second;
}

Challenge
DeviceFleet::goldenChallenge(uint64_t device_id)
{
    const SimulatedChip &chip = device(device_id);
    Rng rng(deviceSeed(device_id) ^ kDomainChallenge);
    return Challenge{rng.below(chip.segments()), config_.segment_bits};
}

Response
DeviceFleet::enrollSignature(uint64_t device_id,
                             const Challenge &challenge)
{
    const SimulatedChip &chip = device(device_id);
    Rng rng(deviceSeed(device_id) ^ kDomainEnrollNonce);
    return puf_.evaluateFiltered(chip, challenge,
                                 {30.0, false, rng.next64()});
}

Response
DeviceFleet::challengeResponse(uint64_t device_id,
                               const Challenge &challenge,
                               uint64_t nonce)
{
    const SimulatedChip &chip = device(device_id);
    return puf_.evaluateFiltered(chip, challenge,
                                 {30.0, false, nonce});
}

CodicTrng &
DeviceFleet::trng(uint64_t device_id)
{
    CODIC_ASSERT(device_id < config_.devices);
    Shard &shard = shards_[static_cast<size_t>(shardOf(device_id))];
    auto it = shard.trngs.find(device_id);
    if (it != shard.trngs.end())
        return *it->second;

    TrngConfig cfg;
    cfg.run.seed = deviceSeed(device_id);
    cfg.segment_bits = config_.trng_segment_bits;
    cfg.harvest_latency_ns = config_.trng_harvest_latency_ns;
    return *shard.trngs
                .emplace(device_id, std::make_unique<CodicTrng>(cfg))
                .first->second;
}

size_t
DeviceFleet::instantiatedDevices() const
{
    size_t n = 0;
    for (const Shard &s : shards_)
        n += s.chips.size();
    return n;
}

std::vector<uint64_t>
DeviceFleet::shardDeviceIds(int shard) const
{
    CODIC_ASSERT(shard >= 0 && shard < config_.shards);
    std::vector<uint64_t> ids;
    if (config_.shard_selector) {
        // Arbitrary placement: filter the population. O(devices)
        // per shard, only paid when a non-default policy is set.
        for (uint64_t id = 0; id < config_.devices; ++id)
            if (shardOf(id) == shard)
                ids.push_back(id);
        return ids;
    }
    for (uint64_t id = static_cast<uint64_t>(shard);
         id < config_.devices;
         id += static_cast<uint64_t>(config_.shards))
        ids.push_back(id);
    return ids;
}

} // namespace codic
