/**
 * @file
 * Fleet scenarios: population-scale serving studies over the
 * src/fleet subsystem (the ROADMAP's "multi-system fleets" item).
 *
 *  - fleet_enroll: enroll a device population into an
 *    EnrollmentStore (optionally persisted with --store).
 *  - fleet_auth_load: pure authentication traffic against an
 *    enrolled (or --store-loaded) population, with impostor probes.
 *  - fleet_mixed: mixed authenticate / re-enroll / TRNG /
 *    secure-dealloc traffic under a Zipfian popularity law.
 *  - fleet_scaling: shard-count sweep of the modeled makespan
 *    (--shards above 8 extends the sweep); with --store-mmap it
 *    serves a mapped --store file, so a 10^7-device store runs with
 *    flat per-request memory.
 *  - fleet_overload: open-loop arrival sweep past the modeled
 *    serving capacity with admission control on - shed rate rises
 *    with offered load while the admitted urgent p99 stays bounded
 *    by the deadline (both CI-gated).
 *  - fleet_region_serving: several regions (own population, mix,
 *    skew, arrival rate) served by one process on one engine, with
 *    per-region and fleet-global percentiles.
 *
 * Determinism: structured rows are pure functions of (seed, scale,
 * devices, requests, zipf) - never of --threads or --shards (the
 * fleet_scaling sweep reports per swept shard count, not per the
 * execution shard count).
 */

#include "scenario/builtin.h"

#include <algorithm>
#include <chrono>
#include <fstream>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "dram/system.h"
#include "fleet/auth_service.h"
#include "fleet/device_fleet.h"
#include "fleet/enrollment_store.h"
#include "scenario/fleet_population.h"
#include "scenario/registry.h"
#include "scenario/scenario_util.h"
#include "scenario/scheduler_workloads.h"

namespace codic {

namespace {

/** Shared fleet construction from the run options. */
FleetConfig
fleetConfigFor(const RunContext &ctx, size_t default_devices)
{
    const RunOptions &options = ctx.options();
    FleetConfig fc;
    fc.population_seed = paperSeed(options, 2026);
    fc.devices = static_cast<uint64_t>(
        options.devicesOr(static_cast<int64_t>(default_devices)));
    fc.shards = options.shardsOr(4);
    fc.dram = moduleFor(options, options.capacityMbOr(1024),
                        options.channelsOr(1));
    // Serving default: the batched scheduler (--sched overrides).
    fc.dram.scheduler = schedulerFor(options, "batched");
    return fc;
}

AuthConfig
authConfigFor(const RunContext &ctx)
{
    AuthConfig ac;
    ac.threads = ctx.options().threads;
    return ac;
}

/** The cost model an AuthService over `fc` measures. */
FleetCostModel
costModelFor(const FleetConfig &fc, const AuthConfig &ac)
{
    return buildFleetCostModel(fc.dram, fc.sig_params.filter_challenges,
                               ac.energy);
}

void
emitLatencyRow(RunContext &ctx, const std::string &section,
               const LoadReport &report)
{
    // Latency columns are queueing-aware (wait + service) for
    // open-loop streams; closed-loop streams have zero waits, so
    // their latency is the modeled service time alone.
    ctx.row(section,
            ResultRow()
                .add("requests", report.requests)
                .add("open_loop", report.open_loop)
                .add("mean_us", report.latency_mean_ns / 1e3)
                .add("p50_us", report.latency_p50_ns / 1e3)
                .add("p95_us", report.latency_p95_ns / 1e3)
                .add("p99_us", report.latency_p99_ns / 1e3)
                .add("max_us", report.latency_max_ns / 1e3)
                .add("wait_mean_us", report.wait_mean_ns / 1e3)
                .add("wait_p95_us", report.wait_p95_ns / 1e3)
                .add("wait_max_us", report.wait_max_ns / 1e3)
                .add("total_service_ms",
                     report.total_service_ns / 1e6)
                .add("energy_mj", report.total_energy_nj / 1e6)
                .addTiming("wall_s", report.wall_seconds)
                .addTiming("wall_krps",
                           ratio(report.requests, report.wall_seconds) /
                               1e3));
}

void
runFleetEnroll(RunContext &ctx)
{
    const FleetConfig fc = fleetConfigFor(ctx, ctx.scaled(2000));
    DeviceFleet fleet(fc);
    EnrollmentStore store(fc.population_seed);
    const AuthConfig ac = authConfigFor(ctx);

    const auto wall_start = std::chrono::steady_clock::now();
    enrollFleet(fleet, store, ac.threads);
    const double wall_s =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - wall_start)
            .count();

    RunningStats cells;
    for (uint64_t id : store.deviceIds())
        cells.add(static_cast<double>(store.lookup(id)->cells.size()));
    const double per_device_ns =
        costModelFor(fc, ac).sig_eval_ns + ac.store_write_ns;
    ctx.row("enrolled population",
            ResultRow()
                .add("devices", static_cast<uint64_t>(fc.devices))
                .add("signature_cells_mean", cells.mean())
                .add("signature_cells_min", cells.min())
                .add("signature_cells_max", cells.max())
                .add("store_bytes",
                     static_cast<uint64_t>(store.binarySizeBytes()))
                .add("modeled_enroll_us_per_device",
                     per_device_ns / 1e3)
                .add("modeled_enroll_total_ms",
                     per_device_ns * static_cast<double>(fc.devices) /
                         1e6)
                .addTiming("wall_s", wall_s)
                .addTiming("wall_devices_per_s",
                           ratio(fc.devices, wall_s)));

    if (!ctx.options().store_path.empty()) {
        store.saveFile(ctx.options().store_path);
        // The path is environment detail; keep it out of the
        // structured output so runs differing only in --store stay
        // byte-identical.
        inform("fleet_enroll: wrote enrollment store (",
               store.size(), " devices) to '",
               ctx.options().store_path, "'");
    }
    ctx.note("Every device's golden CODIC-sig signature is a pure "
             "function of (population seed, device id): the store "
             "serializes byte-identically at any shard or thread "
             "count.");
}

void
runFleetAuthLoad(RunContext &ctx)
{
    const FleetPopulation pop =
        populationFor(ctx.options(), fleetConfigFor(ctx, ctx.scaled(2000)));
    const std::vector<uint64_t> &targets = pop.targets;
    DeviceFleet fleet(pop.config);
    EnrollmentStore store = pop.open();
    const AuthConfig ac = authConfigFor(ctx);
    AuthService service(fleet, store, ac);

    TrafficConfig tc;
    tc.traffic_seed = paperSeed(ctx.options(), 31);
    tc.requests = static_cast<uint64_t>(
        ctx.options().requestsOr(
            static_cast<int64_t>(ctx.scaled(20000))));
    tc.zipf = ctx.options().zipfOr(0.0);
    const LoadReport report =
        service.execute(pop.generator(tc).generate());

    const uint64_t auth_known =
        report.accepted + report.rejected;
    ctx.row("authentication outcomes",
            ResultRow()
                .add("devices", static_cast<uint64_t>(targets.size()))
                .add("requests", report.requests)
                .add("zipf", tc.zipf)
                .add("accepted", report.accepted)
                .add("rejected", report.rejected)
                .add("unknown_device", report.unknown_device)
                .add("true_accept_rate",
                     ratio(report.accepted, auth_known))
                .add("planned_cache_hit_rate",
                     ratio(report.planned_cache_hits, auth_known)));
    emitLatencyRow(ctx, "modeled service latency", report);

    // Impostor probes: a fresh response of device A scored against
    // the golden signature of device B must (essentially) never
    // clear the acceptance threshold.
    {
        Rng rng(paperSeed(ctx.options(), 37));
        const size_t n = targets.size();
        // Impostor pairs need two distinct devices; with a
        // single-device population the probe would score a device
        // against itself and count genuine accepts as false ones.
        const size_t trials =
            n < 2 ? 0 : std::min<size_t>(ctx.scaled(500), tc.requests);
        uint64_t false_accepts = 0;
        for (size_t t = 0; t < trials; ++t) {
            const uint64_t a = targets[rng.below(n)];
            uint64_t b = targets[rng.below(n)];
            while (b == a)
                b = targets[rng.below(n)];
            const auto golden = store.lookup(b);
            const Response probe = fleet.challengeResponse(
                a, fleet.goldenChallenge(a), rng.next64());
            if (golden &&
                jaccard(*golden, probe) >= ac.accept_threshold)
                ++false_accepts;
        }
        ctx.row("impostor probes",
                ResultRow()
                    .add("trials", static_cast<uint64_t>(trials))
                    .add("false_accepts", false_accepts));
    }
    ctx.note("Paper Section 6.1.1 reports 99.36% true accepts and "
             "0.00% false accepts for exact-match authentication; "
             "the fleet's Jaccard-threshold matcher reproduces both "
             "at population scale.");
}

TrafficConfig
mixedTraffic(RunContext &ctx, uint64_t default_requests)
{
    TrafficConfig tc;
    tc.traffic_seed = paperSeed(ctx.options(), 41);
    tc.requests = static_cast<uint64_t>(ctx.options().requestsOr(
        static_cast<int64_t>(default_requests)));
    tc.zipf = ctx.options().zipfOr(0.9);
    tc.weight_auth = 0.7;
    tc.weight_reenroll = 0.1;
    tc.weight_trng = 0.1;
    tc.weight_dealloc = 0.1;
    tc.offered_rps = 50000.0; // Open-loop arrival stamping.
    return tc;
}

void
runFleetMixed(RunContext &ctx)
{
    const FleetPopulation pop =
        populationFor(ctx.options(), fleetConfigFor(ctx, ctx.scaled(1000)));
    DeviceFleet fleet(pop.config);
    EnrollmentStore store = pop.open();
    AuthService service(fleet, store, authConfigFor(ctx));

    const TrafficConfig tc = mixedTraffic(ctx, ctx.scaled(20000));
    const LoadReport report =
        service.execute(pop.generator(tc).generate());

    for (int k = 0; k < kRequestKinds; ++k) {
        ctx.row("request mix",
                ResultRow()
                    .add("kind", requestKindName(
                                     static_cast<RequestKind>(k)))
                    .add("requests", report.by_kind[k])
                    .add("share",
                         ratio(report.by_kind[k], report.requests)));
    }
    ctx.row("functionality outcomes",
            ResultRow()
                .add("accepted", report.accepted)
                .add("rejected", report.rejected)
                .add("unknown_device", report.unknown_device)
                .add("reenrolled", report.reenrolled)
                .add("trng_bits_delivered",
                     report.trng_bits_delivered)
                .add("trng_health_failures",
                     report.trng_health_failures)
                .add("dealloc_rows_cleared",
                     report.dealloc_rows_cleared));
    emitLatencyRow(ctx, "modeled service latency", report);
    ctx.note("Mixed CODIC traffic (70% authenticate, 10% each "
             "re-enroll / TRNG draw / secure-dealloc) over a "
             "Zipf(" + std::to_string(tc.zipf) +
             ") device-popularity law.");
}

/** Shared row emitter of the fleet_scaling sweep points. */
void
emitScalingRow(RunContext &ctx, int shards, const LoadReport &report,
               double makespan_1, double offered_rps)
{
    const double makespan_ns = report.makespanNs();
    // Max/mean busy ratio: 1 = perfectly balanced, and an idle
    // shard raises it instead of zeroing it out (max/min would
    // divide by an idle shard's 0).
    double busy_sum = 0.0;
    for (double b : report.shard_busy_ns)
        busy_sum += b;
    const double busy_mean = busy_sum / static_cast<double>(shards);
    const double speedup = ratio(makespan_1, makespan_ns);
    ctx.row("shard scaling (replayed DRAM makespan)",
            ResultRow()
                .add("shards", shards)
                .add("requests", report.requests)
                .add("makespan_ms", makespan_ns / 1e6)
                .add("speedup_vs_1_shard", speedup)
                .add("efficiency", speedup / shards)
                .add("achieved_krps",
                     ratio(report.requests, makespan_ns / 1e9) / 1e3)
                .add("offered_krps", offered_rps / 1e3)
                .add("imbalance",
                     busy_mean > 0.0 ? makespan_ns / busy_mean
                                     : 1.0)
                .addTiming("wall_s", report.wall_seconds));
}

/**
 * Shard-count sweep of the replayed makespan. With --store-mmap it
 * serves a mapped --store file, first synthesizing a missing one as
 * a deterministic pseudo-population: the serving data path under
 * study never depends on whether the signatures came from real PUF
 * enrollment, which would take hours at 10^7 devices. Auth outcomes
 * against synthetic signatures are not the study's subject.
 */
void
runFleetScaling(RunContext &ctx)
{
    const RunOptions &options = ctx.options();
    const bool mapped = options.store_mmap;
    const FleetConfig proto_config = fleetConfigFor(ctx, ctx.scaled(1000));
    if (mapped && !std::ifstream(options.store_path, std::ios::binary)
                       .good()) {
        const uint64_t written = writeSyntheticStore(
            options.store_path, proto_config.population_seed,
            proto_config.devices, proto_config.segment_bits,
            /*cells_per_record=*/24);
        // Path and reuse are environment detail: keep them out of
        // the structured rows (like fleet_enroll's --store write).
        inform("fleet_scaling: synthesized ", written,
               "-record store at '", options.store_path, "'");
    }
    const FleetPopulation pop =
        populationFor(options, proto_config, /*mapped_ok=*/true);
    const TrafficConfig tc = mixedTraffic(ctx, ctx.scaled(8000));
    const std::vector<FleetRequest> stream =
        pop.generator(tc).generate();

    // Like ablation_engine_parallelism: the sweep is the study
    // input; an explicit --shards above the floor extends it (and
    // with it the row set).
    std::vector<int> sweep = {1, 2, 4, 8};
    if (options.shards > 8)
        sweep.push_back(options.shards);

    double makespan_1 = 0.0;
    for (int shards : sweep) {
        FleetConfig fc = pop.config;
        fc.shards = shards;
        // A fresh store per sweep point: re-enrollment overlays are
        // per-point state (the image itself is never mutated).
        EnrollmentStore store = pop.open();
        if (mapped && shards == sweep.front())
            ctx.row("mmap store",
                    ResultRow()
                        .add("base_records",
                             static_cast<uint64_t>(store.baseRecords()))
                        .add("mapped_mb",
                             static_cast<double>(store.baseBytes()) /
                                 (1024.0 * 1024.0)));
        DeviceFleet fleet(fc);
        AuthService service(fleet, store, authConfigFor(ctx));
        const LoadReport report = service.execute(stream);
        if (shards == 1)
            makespan_1 = report.makespanNs();
        emitScalingRow(ctx, shards, report, makespan_1,
                       tc.offered_rps);
    }
    if (mapped)
        ctx.note("Store records are decoded on demand through the mmap "
                 "index (O(log n) page touches per cold lookup) and the "
                 "bounded LRU cache: per-request memory stays flat at "
                 "any store size. Re-enrollments land in a heap "
                 "overlay; MmapEnrollmentStore::compactTo() folds them "
                 "back into a fresh file.");
    else
        ctx.note("Each shard replays its batch on its own DramSystem; "
                 "the makespan is the slowest shard's busy time. "
                 "Zipf-skewed popularity bounds the speedup through "
                 "the hottest shard (device-id sharding keeps a "
                 "device's state on one shard).");
}

/** Admission/shed telemetry row shared by the serving scenarios. */
void
emitAdmissionRow(RunContext &ctx, const std::string &section,
                 ResultRow row, const LoadReport &report)
{
    ctx.row(section,
            row.add("requests", report.requests)
                .add("admitted", report.admitted)
                .add("shed", report.shed)
                .add("shed_rate", report.shed_rate)
                .add("shed_urgent", report.shed_urgent)
                .add("shed_best_effort", report.shed_best_effort)
                .add("shed_deadline", report.shed_deadline)
                .add("shed_queue", report.shed_queue)
                .add("shed_bucket", report.shed_bucket)
                .add("latency_p50_us", report.latency_p50_ns / 1e3)
                .add("latency_p99_us", report.latency_p99_ns / 1e3)
                .add("admitted_urgent_p50_us",
                     report.admitted_urgent_p50_ns / 1e3)
                .add("admitted_urgent_p99_us",
                     report.admitted_urgent_p99_ns / 1e3));
}

/**
 * Open-loop overload study: sweep the offered arrival rate across
 * and past the admission capacity. The two properties the serving
 * stack is built for - and that CI gates on the summary row:
 *
 *  - p99_bounded: the admitted urgent p99 stays within 2x of its
 *    in-capacity value at every overload point (deadline-based drop
 *    caps the queueing wait an admitted request can have ahead of
 *    it);
 *  - shed_monotone: the shed rate rises (never falls beyond noise)
 *    with offered load - overload degrades smoothly instead of
 *    collapsing;
 *  - urgent_protected: at every point the urgent class's shed
 *    fraction stays at or below the best-effort class's (the
 *    reserve never sheds an authenticate while still admitting
 *    maintenance traffic).
 */
void
runFleetOverload(RunContext &ctx)
{
    const FleetPopulation pop =
        populationFor(ctx.options(), fleetConfigFor(ctx, ctx.scaled(400)));
    AuthConfig ac = authConfigFor(ctx);

    // Capacity: --shed overrides; the default is the cost model's
    // own serving capacity (lanes over one authenticate service
    // time), so the sweep brackets saturation by construction.
    const double capacity_rps = ctx.options().shedOr(
        modeledCapacityRps(costModelFor(pop.config, ac), ac));
    ac.admission.capacity_rps = capacity_rps;
    DeviceFleet fleet(pop.config);
    EnrollmentStore store = pop.open();
    AuthService service(fleet, store, ac);

    // Mix without re-enrollment: the store stays read-only, so one
    // enrolled population serves every sweep point.
    TrafficConfig tc;
    tc.traffic_seed = paperSeed(ctx.options(), 47);
    tc.requests = static_cast<uint64_t>(ctx.options().requestsOr(
        static_cast<int64_t>(ctx.scaled(6000))));
    tc.zipf = ctx.options().zipfOr(0.9);
    tc.weight_auth = 0.8;
    tc.weight_reenroll = 0.0;
    tc.weight_trng = 0.15;
    tc.weight_dealloc = 0.05;

    const double multipliers[] = {0.5, 1.0, 1.5, 2.0, 3.0};
    double in_capacity_urgent_p99 = 0.0;
    double worst_urgent_p99 = 0.0;
    bool shed_monotone = true;
    bool urgent_protected = true;
    double prev_shed_rate = 0.0;
    for (double mult : multipliers) {
        tc.offered_rps = capacity_rps * mult;
        const LoadReport report =
            service.execute(pop.generator(tc).generate());

        if (mult == multipliers[0])
            in_capacity_urgent_p99 = report.admitted_urgent_p99_ns;
        worst_urgent_p99 = std::max(worst_urgent_p99,
                                    report.admitted_urgent_p99_ns);
        // "Rises smoothly": tolerate Poisson noise of a couple
        // percent between adjacent points, never a real drop.
        shed_monotone =
            shed_monotone && report.shed_rate >= prev_shed_rate - 0.02;
        prev_shed_rate = report.shed_rate;
        const uint64_t urgent_total =
            report.by_kind[static_cast<int>(
                RequestKind::Authenticate)];
        const uint64_t best_effort_total =
            report.requests - urgent_total;
        // Strictly "never shed before": allow equality (both 0 in
        // capacity, both saturated deep into overload).
        urgent_protected =
            urgent_protected &&
            ratio(report.shed_urgent, urgent_total) <=
                ratio(report.shed_best_effort, best_effort_total) + 1e-9;

        emitAdmissionRow(ctx, "offered-load sweep",
                         ResultRow()
                             .add("offered_over_capacity", mult)
                             .add("offered_krps",
                                  tc.offered_rps / 1e3),
                         report);
    }

    ctx.row("overload summary",
            ResultRow()
                .add("capacity_krps", capacity_rps / 1e3)
                .add("in_capacity_urgent_p99_us",
                     in_capacity_urgent_p99 / 1e3)
                .add("worst_urgent_p99_us", worst_urgent_p99 / 1e3)
                .add("p99_bounded",
                     worst_urgent_p99 <=
                         2.0 * in_capacity_urgent_p99)
                .add("shed_monotone", shed_monotone)
                .add("urgent_protected", urgent_protected));
    ctx.note("Token-bucket admission at the modeled capacity with "
             "an urgent reserve: past saturation the excess arrival "
             "rate is shed (best-effort first), and deadline-based "
             "drop keeps the admitted urgent p99 within the class "
             "deadline of its in-capacity value.");
}

/** Per-region presets of the multi-region storm (cycled by index). */
struct RegionPreset
{
    const char *name;
    double zipf;
    double capacity_multiplier; //!< Offered load vs modeled capacity.
    double weight_auth, weight_reenroll, weight_trng, weight_dealloc;
};

constexpr RegionPreset kRegionPresets[] = {
    // In-capacity interactive region with a mild skew.
    {"americas", 0.6, 0.7, 0.85, 0.05, 0.05, 0.05},
    // Near-capacity region with a heavy skew.
    {"europe", 1.1, 1.0, 0.7, 0.1, 0.1, 0.1},
    // Overloaded maintenance-heavy region: sheds best-effort first.
    {"asia", 0.9, 2.0, 0.5, 0.15, 0.2, 0.15},
};
constexpr size_t kRegionPresetCount =
    sizeof(kRegionPresets) / sizeof(kRegionPresets[0]);

/**
 * Multi-region serving storm: --regions fleets, each with its own
 * population seed, Zipf skew, request mix and arrival rate under one
 * shared admission capacity. Each region is a plain fleet study
 * (enroll, open, serve) run as one engine task; reported per region
 * and as the fleet-global roll-up.
 */
void
runFleetRegionServing(RunContext &ctx)
{
    if (ctx.options().store_mmap)
        fatal("fleet: --store-mmap is supported by fleet_scaling "
              "(regions enroll their own in-memory stores)");
    const size_t region_count =
        static_cast<size_t>(ctx.options().regionsOr(3));

    // Each region's capacity comes from the shared cost model (all
    // regions serve the same DRAM grade). A region is one engine
    // task, so its own service runs single-threaded.
    AuthConfig ac = authConfigFor(ctx);
    const double capacity_rps = ctx.options().shedOr(modeledCapacityRps(
        costModelFor(fleetConfigFor(ctx, 1), ac), ac));
    ac.admission.capacity_rps = capacity_rps;
    ac.threads = 1;

    std::vector<std::string> names(region_count);
    std::vector<double> offered_rps(region_count);
    std::vector<LoadReport> reports(region_count);
    // Wall time of the whole pass, enrollment included.
    const auto wall_start = std::chrono::steady_clock::now();
    CampaignEngine(ctx.options().threads)
        .forEach(region_count, [&](size_t r) {
            const RegionPreset &preset =
                kRegionPresets[r % kRegionPresetCount];
            names[r] = preset.name;
            if (r >= kRegionPresetCount)
                names[r] += "_" + std::to_string(r);
            FleetConfig fc = fleetConfigFor(ctx, ctx.scaled(300));
            // Distinct populations: regions never share device
            // identity.
            fc.population_seed += 1000ull * (r + 1);
            fc.shards = ctx.options().shardsOr(2);
            TrafficConfig tc;
            tc.traffic_seed = paperSeed(ctx.options(), 53) + r;
            tc.requests = static_cast<uint64_t>(ctx.options().requestsOr(
                static_cast<int64_t>(ctx.scaled(4000))));
            tc.zipf = preset.zipf;
            tc.weight_auth = preset.weight_auth;
            tc.weight_reenroll = preset.weight_reenroll;
            tc.weight_trng = preset.weight_trng;
            tc.weight_dealloc = preset.weight_dealloc;
            tc.offered_rps = capacity_rps * preset.capacity_multiplier;
            offered_rps[r] = tc.offered_rps;

            const FleetPopulation pop = enrollPopulation(fc, 1);
            EnrollmentStore store = pop.open();
            DeviceFleet fleet(pop.config);
            reports[r] = AuthService(fleet, store, ac)
                             .execute(pop.generator(tc).generate());
        });
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() -
                              wall_start)
                              .count();

    LoadReport global; // The roll-up's sums only.
    std::vector<double> latencies;
    for (size_t r = 0; r < region_count; ++r) {
        const LoadReport &report = reports[r];
        const uint64_t auth_known =
            report.accepted + report.rejected;
        emitAdmissionRow(
            ctx, "per-region serving",
            ResultRow()
                .add("region", names[r])
                .add("offered_krps", offered_rps[r] / 1e3)
                .add("accepted", report.accepted)
                .add("planned_cache_hit_rate",
                     ratio(report.planned_cache_hits, auth_known)),
            report);
        global.requests += report.requests;
        global.admitted += report.admitted;
        global.shed += report.shed;
        global.shed_urgent += report.shed_urgent;
        global.total_energy_nj += report.total_energy_nj;
        // Region order: the pooled percentiles never depend on
        // which task finished first.
        latencies.insert(latencies.end(),
                         report.admitted_latencies_ns.begin(),
                         report.admitted_latencies_ns.end());
    }
    const auto pooled = [&](double p) {
        return latencies.empty() ? 0.0 : percentile(latencies, p);
    };

    ctx.row("global roll-up",
            ResultRow()
                .add("regions", static_cast<uint64_t>(region_count))
                .add("requests", global.requests)
                .add("admitted", global.admitted)
                .add("shed", global.shed)
                .add("shed_urgent", global.shed_urgent)
                .add("shed_rate", ratio(global.shed, global.requests))
                .add("latency_p50_us", pooled(50.0) / 1e3)
                .add("latency_p95_us", pooled(95.0) / 1e3)
                .add("latency_p99_us", pooled(99.0) / 1e3)
                .add("energy_mj", global.total_energy_nj / 1e6)
                .addTiming("wall_s", wall_s));
    ctx.note("Each region enrolls and serves its own population as "
             "one engine task, so worker threads are shared across "
             "regions; the global roll-up pools admitted latencies "
             "across regions in region order.");
}

/**
 * QoS ablation: priority-blind vs priority-aware vs REFpb scheduling
 * under fleet-storm traffic, in two complementary halves.
 *
 * Half 1 replays the fleet_mixed request storm (shards pinned to 1
 * so the replay latency is comparable across variants and
 * independent of --shards/--threads) and reports the replay-measured
 * authenticate latency percentiles per scheduler variant.
 *
 * Half 2 drives the canonical mixed-priority storm straight at one
 * DramSystem per variant: background write storms and best-effort
 * read sweeps against one authenticate-class urgent read per wave
 * (the same priority tag AuthService stamps). This half exposes the
 * write-drain jumping path the fleet replay cannot reach (footprint
 * replays carry no writes), and tallies the storm's reads and writes
 * per origin from the latencies it times itself.
 *
 * The priority-blind baseline is the batched preset with the serving
 * preset's refresh settings matched (refresh=auto, postpone 4), so
 * the serving-vs-blind delta isolates priority scheduling instead of
 * mixing in refresh-off-vs-on.
 */
void
runAblationQos(RunContext &ctx)
{
    struct Variant
    {
        const char *name;
        const char *spec;
    };
    const Variant variants[] = {
        {"batched_blind", "batched:refresh=auto,refresh_postpone=4"},
        {"serving", "serving"},
        {"serving_refpb", "serving:refresh=per-bank"},
    };

    // --- Half 1: fleet_mixed storm, replayed per variant. ---------
    const TrafficConfig tc = mixedTraffic(ctx, ctx.scaled(6000));
    const FleetPopulation pop =
        populationFor(ctx.options(), fleetConfigFor(ctx, ctx.scaled(400)));
    const std::vector<FleetRequest> stream =
        pop.generator(tc).generate();

    double fleet_p99_blind_us = 0.0;
    double fleet_p99_serving_us = 0.0;
    for (const Variant &v : variants) {
        FleetConfig fc = pop.config;
        fc.shards = 1;
        fc.dram.scheduler = SchedulerPolicy::parse(v.spec);
        EnrollmentStore store = pop.open();
        DeviceFleet fleet(fc);
        AuthService service(fleet, store, authConfigFor(ctx));
        const LoadReport report = service.execute(stream);

        const double p99_us = report.auth_replay_p99_ns / 1e3;
        if (std::string(v.name) == "batched_blind")
            fleet_p99_blind_us = p99_us;
        else if (std::string(v.name) == "serving")
            fleet_p99_serving_us = p99_us;
        ctx.row("fleet storm auth replay latency",
                ResultRow()
                    .add("sched", v.name)
                    .add("auth_replayed", report.auth_replayed)
                    .add("auth_mean_us",
                         report.auth_replay_mean_ns / 1e3)
                    .add("auth_p50_us", report.auth_replay_p50_ns / 1e3)
                    .add("auth_p99_us", p99_us)
                    .add("auth_max_us", report.auth_replay_max_ns / 1e3)
                    .add("makespan_ms", report.makespanNs() / 1e6)
                    .addTiming("wall_s", report.wall_seconds));
    }

    // --- Half 2: controller-level mixed-priority storm. -----------
    const int64_t waves = static_cast<int64_t>(ctx.scaled(300));
    const int background_writes = 48;
    double storm_p99_blind_us = 0.0;
    double storm_p99_serving_us = 0.0;
    for (const Variant &v : variants) {
        DramConfig cfg =
            moduleFor(ctx.options(), /*capacity_mb=*/64,
                      /*channels=*/1);
        cfg.scheduler = SchedulerPolicy::parse(v.spec);
        DramSystem sys(cfg);
        std::vector<Cycle> urgent_lat;
        std::vector<Cycle> bg_lat;
        runPriorityStormWorkload(sys, waves, background_writes,
                                 /*background_reads=*/12, &urgent_lat,
                                 &bg_lat);

        const std::vector<double> urgent_us =
            latenciesUs(cfg, urgent_lat);
        const std::vector<double> bg_us = latenciesUs(cfg, bg_lat);

        const double p99_us =
            urgent_us.empty() ? 0.0 : percentile(urgent_us, 99.0);
        if (std::string(v.name) == "batched_blind")
            storm_p99_blind_us = p99_us;
        else if (std::string(v.name) == "serving")
            storm_p99_serving_us = p99_us;

        const CommandCounts counts = sys.totalCounts();
        ctx.row("priority storm (urgent=authenticate class)",
                ResultRow()
                    .add("sched", v.name)
                    .add("waves", static_cast<uint64_t>(waves))
                    .add("urgent_p50_us",
                         urgent_us.empty()
                             ? 0.0
                             : percentile(urgent_us, 50.0))
                    .add("urgent_p99_us", p99_us)
                    .add("bg_p99_us",
                         bg_us.empty() ? 0.0
                                       : percentile(bg_us, 99.0))
                    .add("ref", counts.ref)
                    .add("refpb", counts.refpb)
                    .add("refresh_overlap_kcycles",
                         static_cast<double>(
                             counts.refresh_overlap_cycles) /
                             1e3));

        // Per-origin accounting from the storm's own tallies: origin
        // 0 is the background storm (its reads and every write),
        // origin 1 the authenticate-class urgent stream.
        const auto originRow = [&](uint64_t origin,
                                   const std::vector<Cycle> &lat,
                                   uint64_t writes) {
            uint64_t sum = 0;
            Cycle max = 0;
            for (const Cycle c : lat) {
                sum += static_cast<uint64_t>(c);
                max = std::max(max, c);
            }
            const uint64_t reads = lat.size();
            ctx.row("per-origin accounting",
                    ResultRow()
                        .add("sched", v.name)
                        .add("origin", origin)
                        .add("reads", reads)
                        .add("writes", writes)
                        .add("rowops", uint64_t{0})
                        .add("read_mean_us",
                             reads ? cfg.cyclesToNs(static_cast<Cycle>(
                                         sum / reads)) /
                                         1e3
                                   : 0.0)
                        .add("read_max_us", cfg.cyclesToNs(max) / 1e3));
        };
        originRow(0, bg_lat,
                  static_cast<uint64_t>(waves * background_writes));
        originRow(1, urgent_lat, 0);
    }

    const auto improvement = [](double blind, double with) {
        return blind > 0.0 ? (blind - with) / blind * 100.0 : 0.0;
    };
    ctx.row("qos improvement (serving vs priority-blind)",
            ResultRow()
                .add("storm_p99_blind_us", storm_p99_blind_us)
                .add("storm_p99_serving_us", storm_p99_serving_us)
                .add("storm_p99_improvement_pct",
                     improvement(storm_p99_blind_us,
                                 storm_p99_serving_us))
                .add("fleet_p99_blind_us", fleet_p99_blind_us)
                .add("fleet_p99_serving_us", fleet_p99_serving_us)
                .add("fleet_p99_improvement_pct",
                     improvement(fleet_p99_blind_us,
                                 fleet_p99_serving_us)));
    ctx.note("The serving preset's priority scheduling pulls "
             "authenticate-class reads ahead of best-effort traffic "
             "in the FR-FCFS window and between write-drain batches; "
             "the 16-bypass aging rule bounds background starvation. "
             "The REFpb variant trades the all-bank REF lockout for "
             "per-bank refreshes that overlap with sibling-bank "
             "work.");
}

} // namespace

void
registerFleetScenarios(ScenarioRegistry &registry)
{
    registry.add(makeScenario(
        "fleet_enroll",
        "Fleet: enroll a sharded device population into the "
        "golden-signature EnrollmentStore (persist with --store)",
        runFleetEnroll));
    registry.add(makeScenario(
        "fleet_auth_load",
        "Fleet: request-level authentication load with impostor "
        "probes and modeled p50/p95/p99 service latency",
        runFleetAuthLoad));
    registry.add(makeScenario(
        "fleet_mixed",
        "Fleet: mixed authenticate/re-enroll/TRNG/secure-dealloc "
        "traffic over a Zipfian device-popularity law",
        runFleetMixed));
    registry.add(makeScenario(
        "fleet_scaling",
        "Fleet: shard-count sweep of the replayed DRAM makespan "
        "(--shards above 8 extends the sweep)",
        runFleetScaling));
    registry.add(makeScenario(
        "fleet_overload",
        "Fleet: open-loop arrival sweep past the admission capacity "
        "- shed rate rises smoothly while the admitted urgent p99 "
        "stays bounded (CI-gated)",
        runFleetOverload));
    registry.add(makeScenario(
        "fleet_region_serving",
        "Fleet: multi-region mixed storm (per-region populations, "
        "skew, arrival rates) on one shared engine with per-region "
        "and global percentiles",
        runFleetRegionServing));
    registry.add(makeScenario(
        "ablation_qos",
        "QoS: priority-blind vs serving vs REFpb scheduling under a "
        "fleet_mixed storm, with per-origin accounting",
        runAblationQos));
}

} // namespace codic
