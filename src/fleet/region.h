/**
 * @file
 * Multi-region serving layer: several fleets - each with its own
 * population seed, traffic mix, Zipf skew and arrival process -
 * share one process and one CampaignEngine.
 *
 * Two pieces:
 *
 *  - ShardSelector: the pluggable device -> shard placement policy
 *    of a fleet (the BankSelector idiom from the DRAM address map,
 *    lifted to serving). The default modulo policy preserves the
 *    historical `id % shards` mapping bit for bit; the hash policy
 *    spreads sequential id ranges; an explicit policy pins chosen
 *    devices to chosen shards and is what rebalancedSelector()
 *    builds from a measured stream, packing Zipf-hot devices across
 *    shards (greedy longest-processing-time) so one shard no longer
 *    serializes the head of the popularity distribution.
 *
 *  - RegionSet: owns one (DeviceFleet, EnrollmentStore, AuthService)
 *    triple per region and serves all regions' streams in one
 *    engine pass over the flattened (region, shard) task list, so a
 *    worker drains shard batches of whichever region still has
 *    work. Reports stay per-region (each region's LoadReport is
 *    byte-identical to serving that region alone) plus a global
 *    roll-up of fleet-wide percentiles and shed rates merged from
 *    the per-region executions.
 *
 * Determinism: placement policies are pure functions of (device id,
 * shard count), region planning is sequential per region in region
 * order, and the global roll-up merges per-region latency vectors in
 * region order - so every reported number is byte-identical at any
 * thread count.
 */

#ifndef CODIC_FLEET_REGION_H
#define CODIC_FLEET_REGION_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "fleet/auth_service.h"
#include "fleet/device_fleet.h"
#include "fleet/enrollment_store.h"

namespace codic {

/**
 * Device -> shard placement policy (FleetConfig::shard_selector).
 * Implementations are pure functions of (device_id, shards): no
 * state, safe to share across threads and regions.
 */
class ShardSelector
{
  public:
    virtual ~ShardSelector() = default;

    /** Shard serving the device; must return a value in [0, shards). */
    virtual int shardOf(uint64_t device_id, int shards) const = 0;

    /** Policy name (reports / CLI). */
    virtual const char *name() const = 0;

    /**
     * Factory over the named policies: "modulo" (id % shards, the
     * default placement) or "hash" (mixed id % shards, spreading
     * sequential id ranges). @throws FatalError on an unknown name.
     */
    static std::shared_ptr<const ShardSelector>
    create(const std::string &policy);
};

/** The historical placement: id % shards. */
class ModuloShardSelector : public ShardSelector
{
  public:
    int shardOf(uint64_t device_id, int shards) const override;
    const char *name() const override { return "modulo"; }
};

/** Mixed placement: splitmix64(id) % shards. */
class HashShardSelector : public ShardSelector
{
  public:
    int shardOf(uint64_t device_id, int shards) const override;
    const char *name() const override { return "hash"; }
};

/**
 * Explicit placement: pinned devices go to their pinned shard,
 * everything else falls through to the fallback policy. What
 * rebalancedSelector() builds.
 */
class ExplicitShardSelector : public ShardSelector
{
  public:
    /** @param fallback Policy for unpinned devices (never null). */
    ExplicitShardSelector(
        std::unordered_map<uint64_t, int> pinned,
        std::shared_ptr<const ShardSelector> fallback);

    int shardOf(uint64_t device_id, int shards) const override;
    const char *name() const override { return "explicit"; }

    size_t pinnedDevices() const { return pinned_.size(); }

  private:
    std::unordered_map<uint64_t, int> pinned_;
    std::shared_ptr<const ShardSelector> fallback_;
};

/**
 * Build an explicit placement from a measured stream: devices are
 * weighted by their request count and greedily packed onto the
 * least-loaded shard, hottest first (LPT bin packing - within 4/3 of
 * the optimal makespan), so a Zipf-skewed stream's head no longer
 * piles onto whatever shard the fallback policy put it on. Devices
 * absent from the stream fall through to `fallback`. Deterministic:
 * ties break on ascending device id.
 */
std::shared_ptr<const ShardSelector>
rebalancedSelector(const std::vector<FleetRequest> &stream,
                   int shards,
                   std::shared_ptr<const ShardSelector> fallback);

/** One region: an independent fleet with its own traffic. */
struct RegionConfig
{
    std::string name = "region";
    FleetConfig fleet;
    TrafficConfig traffic;
    AuthConfig auth;
};

/** Global roll-up across the regions of one serve() pass. */
struct GlobalReport
{
    uint64_t requests = 0;
    uint64_t admitted = 0;
    uint64_t shed = 0;
    uint64_t shed_urgent = 0;
    double shed_rate = 0;

    /** Fleet-global modeled latency over all admitted requests. */
    double latency_p50_ns = 0;
    double latency_p95_ns = 0;
    double latency_p99_ns = 0;

    double total_energy_nj = 0;
    double wall_seconds = 0;
};

/**
 * Several regions served by one process: one engine drains the
 * flattened (region, shard) task list, so worker threads are shared
 * across regions instead of each region bringing its own pool.
 */
class RegionSet
{
  public:
    /** Builds each region's fleet/store/service (stores start empty). */
    explicit RegionSet(std::vector<RegionConfig> regions);

    size_t regions() const { return regions_.size(); }
    const RegionConfig &config(size_t i) const;

    /**
     * Enroll every region's fleet, one enrollShard() task per
     * (region, shard) on one engine. Store contents are independent
     * of threading.
     */
    void enrollAll(int threads);

    /** One serve() pass: per-region reports plus the global roll-up. */
    struct Result
    {
        std::vector<std::string> names;
        std::vector<LoadReport> reports;
        GlobalReport global;
    };

    /**
     * Synthesize each region's stream (from its TrafficConfig, over
     * its enrolled population), plan sequentially per region, and
     * execute all regions' shard batches in one engine pass. Each
     * region's LoadReport is byte-identical to serving that region
     * alone with the same config.
     */
    Result serve(int threads);

  private:
    struct Region
    {
        RegionConfig config;
        std::unique_ptr<DeviceFleet> fleet;
        std::unique_ptr<EnrollmentStore> store;
        std::unique_ptr<AuthService> service;
    };

    /** Run task(region, shard) for every shard of every region. */
    void forEachShard(int threads,
                      const std::function<void(size_t, size_t)> &task);

    std::vector<Region> regions_;
};

} // namespace codic

#endif // CODIC_FLEET_REGION_H
