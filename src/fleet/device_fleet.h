/**
 * @file
 * Sharded simulated-device populations for fleet-scale serving
 * experiments (the ROADMAP's "multi-system fleets" item).
 *
 * A DeviceFleet models a population of enrolled DRAM devices - each
 * one a SimulatedChip whose process variation derives from
 * Rng::fork() of the population seed and the device id alone - split
 * into `shards` serving shards. Each shard owns the devices whose id
 * maps to it (`id % shards`) and, while a batch executes, one
 * DramSystem that replays the batch's DRAM command footprints for
 * timing/energy accounting.
 *
 * Determinism contract: every per-device property (chip variation,
 * golden challenge, TRNG source population) is a pure function of
 * (population_seed, device_id). Sharding and threading only choose
 * which worker materializes a device, never what it looks like, so a
 * fleet campaign is bit-identical at any shard or thread count.
 *
 * Devices are instantiated lazily on first touch: constructing a
 * fleet of 10^9 devices costs nothing until traffic reaches them.
 */

#ifndef CODIC_FLEET_DEVICE_FLEET_H
#define CODIC_FLEET_DEVICE_FLEET_H

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "dram/config.h"
#include "puf/chip_model.h"
#include "puf/sig_puf.h"
#include "trng/trng.h"

namespace codic {

/** Fleet population parameters. */
struct FleetConfig
{
    /** Population identity; device i derives from (seed, i). */
    uint64_t population_seed = 2026;

    /** Number of devices in the population. */
    uint64_t devices = 10000;

    /**
     * Serving shards; device i is served by shard i % shards.
     * Purely an execution parameter (like RunOptions::threads): the
     * structured report is identical at any value - only per-shard
     * replay telemetry (shard_busy_ns, makespan) moves.
     */
    int shards = 4;

    /**
     * DRAM module each shard's replay system simulates. The serving
     * stack defaults to the batched scheduler preset (the bare
     * DramConfig default stays eager so the paper campaigns keep
     * reproducing the published numbers).
     */
    DramConfig dram = [] {
        DramConfig d = DramConfig::ddr3_1600(1024, 1);
        d.scheduler = SchedulerPolicy::preset("batched");
        return d;
    }();

    /** PUF challenge segment size (paper: 8 KB = 65536 bits). */
    int segment_bits = 65536;

    /**
     * TRNG enrollment scan width per device (default: the paper's
     * full 8 KB segment; the ~8-sources-per-segment density means a
     * narrower scan would leave most devices without any metastable
     * source). Enrollment is lazy, so only devices that actually
     * receive TRNG traffic pay the scan: two xoshiro draws per pair
     * of sites, with transcendentals only for the tail candidates
     * (see CodicTrng).
     */
    int trng_segment_bits = 65536;

    /** TRNG harvest-command latency (sigsa-class command), ns. */
    double trng_harvest_latency_ns = 35.0;

    /** CODIC-sig PUF model parameters shared by the population. */
    SigPufParams sig_params = {};
};

/**
 * A sharded population of simulated devices.
 *
 * Thread-safety: concurrent access is safe as long as no two threads
 * touch devices of the same shard at the same time - the execution
 * model of AuthService, which runs one engine task per shard. All
 * accessors are deterministic in (population_seed, device_id).
 */
class DeviceFleet
{
  public:
    explicit DeviceFleet(const FleetConfig &config);

    const FleetConfig &config() const { return config_; }
    uint64_t devices() const { return config_.devices; }
    int shards() const { return config_.shards; }

    /** Shard serving a device: id % shards. */
    int shardOf(uint64_t device_id) const;

    /** Device-identity seed: pure function of (population, id). */
    uint64_t deviceSeed(uint64_t device_id) const;

    /** The device's chip, instantiated on first touch. */
    const SimulatedChip &device(uint64_t device_id);

    /**
     * The PUF challenge this device enrolls and authenticates
     * against (a device-specific segment of its chip).
     */
    Challenge goldenChallenge(uint64_t device_id);

    /**
     * Filtered golden-signature evaluation of the device's golden
     * challenge with its enrollment nonce (what EnrollmentStore
     * records). The caller derives the challenge once for both the
     * evaluation and the store record.
     */
    Response enrollSignature(uint64_t device_id,
                             const Challenge &challenge);

    /**
     * Filtered response to a challenge under a fresh per-request
     * nonce (what AuthService compares against the golden
     * signature). The serving hot path computes goldenChallenge()
     * once per request and reuses it for both the evaluation and
     * the replay row address.
     */
    Response challengeResponse(uint64_t device_id,
                               const Challenge &challenge,
                               uint64_t nonce);

    /** The device's TRNG, lazily enrolled on first draw. */
    CodicTrng &trng(uint64_t device_id);

    /** Devices materialized so far (lazy-instantiation telemetry). */
    size_t instantiatedDevices() const;

    /** Device ids of one shard, ascending (enrollment order). */
    std::vector<uint64_t> shardDeviceIds(int shard) const;

  private:
    struct Shard
    {
        std::unordered_map<uint64_t, SimulatedChip> chips;
        std::unordered_map<uint64_t, std::unique_ptr<CodicTrng>> trngs;
    };

    FleetConfig config_;
    CodicSigPuf puf_;
    std::vector<Shard> shards_;
};

} // namespace codic

#endif // CODIC_FLEET_DEVICE_FLEET_H
