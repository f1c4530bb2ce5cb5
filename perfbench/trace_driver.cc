/**
 * @file
 * perfbench_trace: the benchmark's own driver over the codic_core
 * public entry points. It never changes the simulator; it reruns a
 * benchmark workload and times each layer from outside, through
 * decorators over the interfaces the library already exposes
 * (MemoryService, DramPuf, EnrollmentBackend) and direct timing of
 * InOrderCore::step, DeviceFleet::trng and AuthService::prepare /
 * runShard / finalize.
 *
 * Modes (one JSON object on stdout each):
 *   --mode setup       time the workload's set-up calls only (the
 *                      calls a codic_run process makes before its
 *                      first simulated event) and count its work
 *                      units: {"setup_s":..,"work_units":..}
 *   --mode trace       traced run, then the untraced public entry
 *                      points on the same inputs; exits 1 unless the
 *                      modeled results are identical. Prints every
 *                      per-layer metric; --spans FILE writes the span
 *                      tree and counters.
 *   --mode make-store  synthesize the fleet_serve store (--store).
 *
 * Workload flags mirror codic_run: --workload secdealloc_mix |
 * puf_campaign | fleet_serve, --seed, --scale, --threads, --devices,
 * --store. The per-workload code below replays exactly the calls of
 * the matching codic_run scenario (secdealloc_fig9, puf_fig5_jaccard,
 * fleet_scaling --store-mmap).
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/run_options.h"
#include "dram/system.h"
#include "fleet/auth_service.h"
#include "fleet/device_fleet.h"
#include "fleet/store_mmap.h"
#include "power/energy_model.h"
#include "puf/chip_model.h"
#include "puf/experiments.h"
#include "puf/latency_puf.h"
#include "puf/prelat_puf.h"
#include "puf/sig_puf.h"
#include "scenario/scenario_util.h"
#include "secdealloc/evaluate.h"
#include "sim/core.h"
#include "sim/workloads.h"
#include "tracing.h"

using namespace codic;
using perfbench::Counter;
using perfbench::CountedCall;
using perfbench::ScopedSpan;
using perfbench::Tracer;

namespace {

using Metrics = std::map<std::string, double>;

double
seconds(int64_t ns)
{
    return static_cast<double>(ns) / 1e9;
}

/** Nearest-rank percentile of a value -> count histogram. */
double
histPercentile(const std::map<uint64_t, uint64_t> &hist, double pct)
{
    uint64_t n = 0;
    for (const auto &[v, c] : hist)
        n += c;
    if (n == 0)
        return 0.0;
    const auto rank = static_cast<uint64_t>(
        std::max(1.0, std::ceil(pct / 100.0 * static_cast<double>(n))));
    uint64_t seen = 0;
    for (const auto &[v, c] : hist) {
        seen += c;
        if (seen >= rank)
            return static_cast<double>(v);
    }
    return static_cast<double>(hist.rbegin()->first);
}

// --- mem / dram: the MemoryService decorator -----------------------

struct MemLayer
{
    Counter *submit, *completion_of, *poll, *drain_all, *other;
    uint64_t reads = 0, writes = 0, rowops = 0;
    std::map<uint64_t, uint64_t> read_wait; //!< Cycles -> count.
    CommandCounts cmds;                     //!< Summed totalCounts().

    explicit MemLayer(Tracer &t)
        : submit(&t.counter("mem.submit")),
          completion_of(&t.counter("mem.completion_of")),
          poll(&t.counter("mem.poll")),
          drain_all(&t.counter("mem.drain_all")),
          other(&t.counter("mem.other"))
    {
    }
};

/**
 * Forwards every MemoryService call to the real service and times it.
 * Bookkeeping (kind counts, read arrivals) stays outside the timed
 * scope so it is charged to the caller, not to the memory layer.
 */
class TracedMemory final : public MemoryService
{
  public:
    TracedMemory(MemoryService &inner, Tracer &t, MemLayer &layer)
        : inner_(inner), t_(t), l_(layer)
    {
    }

    Ticket submit(const MemTransaction &txn) override
    {
        Ticket ticket;
        {
            CountedCall c(t_, *l_.submit);
            ticket = inner_.submit(txn);
        }
        switch (txn.kind) {
          case TxnKind::Read:
            ++l_.reads;
            arrivals_[ticket] = txn.arrival;
            break;
          case TxnKind::Write:
            ++l_.writes;
            break;
          case TxnKind::RowOp:
            ++l_.rowops;
            break;
        }
        return ticket;
    }

    Cycle completionOf(Ticket ticket) override
    {
        Cycle done;
        {
            CountedCall c(t_, *l_.completion_of);
            done = inner_.completionOf(ticket);
        }
        const auto it = arrivals_.find(ticket);
        if (it != arrivals_.end()) {
            ++l_.read_wait[done - it->second];
            arrivals_.erase(it);
        }
        return done;
    }

    size_t poll(Cycle now) override
    {
        CountedCall c(t_, *l_.poll);
        return inner_.poll(now);
    }

    Cycle drainAll() override
    {
        CountedCall c(t_, *l_.drain_all);
        return inner_.drainAll();
    }

    Cycle acceptedAt(Ticket ticket) const override
    {
        CountedCall c(t_, *l_.other);
        return inner_.acceptedAt(ticket);
    }

    void retire(Ticket ticket) override
    {
        {
            CountedCall c(t_, *l_.other);
            inner_.retire(ticket);
        }
        arrivals_.erase(ticket);
    }

    void onComplete(Ticket ticket, CompletionCallback fn) override
    {
        CountedCall c(t_, *l_.other);
        arrivals_.erase(ticket);
        inner_.onComplete(ticket, std::move(fn));
    }

    size_t inFlightCount() const override
    {
        return inner_.inFlightCount();
    }
    const AddressMap &map() const override { return inner_.map(); }
    const DramConfig &dramConfig() const override
    {
        return inner_.dramConfig();
    }

  private:
    MemoryService &inner_;
    Tracer &t_;
    MemLayer &l_;
    std::unordered_map<Ticket, Cycle> arrivals_;
};

void
addCounts(CommandCounts &sum, const CommandCounts &c)
{
    sum.act += c.act;
    sum.rd += c.rd;
    sum.wr += c.wr;
    sum.ref += c.ref + c.refpb;
    sum.codic += c.codic;
}

void
memMetrics(Metrics &m, const MemLayer &l)
{
    for (const auto &[name, c] :
         {std::pair<const char *, const Counter *>{"submit", l.submit},
          {"completion_of", l.completion_of},
          {"poll", l.poll},
          {"drain_all", l.drain_all},
          {"other", l.other}}) {
        const std::string key = std::string("mem.") + name;
        m[key + ".calls"] = static_cast<double>(c->calls);
        m[key + ".self_s"] = seconds(c->selfNs());
    }
    m["mem.txn.reads"] = static_cast<double>(l.reads);
    m["mem.txn.writes"] = static_cast<double>(l.writes);
    m["mem.txn.rowops"] = static_cast<double>(l.rowops);
    m["mem.read_wait_cycles.p50"] = histPercentile(l.read_wait, 50.0);
    m["mem.read_wait_cycles.p99"] = histPercentile(l.read_wait, 99.0);
    const CommandCounts &c = l.cmds;
    m["dram.cmd.act"] = static_cast<double>(c.act);
    m["dram.cmd.rd"] = static_cast<double>(c.rd);
    m["dram.cmd.wr"] = static_cast<double>(c.wr);
    m["dram.cmd.ref"] = static_cast<double>(c.ref);
    m["dram.cmd.codic"] = static_cast<double>(c.codic);
    m["dram.row_hit_ratio"] =
        c.rd + c.wr ? 1.0 - static_cast<double>(c.act) /
                                static_cast<double>(c.rd + c.wr)
                    : 0.0;
}

// --- sim: secdealloc_mix (codic_run secdealloc_fig9) ---------------

DeallocEvalConfig
deallocConfig(const RunOptions &o)
{
    DeallocEvalConfig cfg;
    cfg.run.seed = paperSeed(o, 11);
    cfg.run.threads = o.threads;
    cfg.dram_capacity_mb = o.capacityMbOr(2048);
    cfg.dram_channels = o.channelsOr(1);
    return cfg;
}

/** Representative mixes, then the random-mix average, as Fig. 9. */
std::vector<WorkloadMix>
fig9Mixes(const RunOptions &o)
{
    auto mixes = representativeMixes(paperSeed(o, 77));
    mixes.resize(std::min(mixes.size(), o.scaled(mixes.size())));
    for (auto &m : randomMixes(o.scaled(50), paperSeed(o, 123)))
        mixes.push_back(std::move(m));
    return mixes;
}

constexpr std::array<DeallocMode, 4> kModes = {
    DeallocMode::SoftwareZero, DeallocMode::LisaClone,
    DeallocMode::RowClone, DeallocMode::CodicDet};

/**
 * runMultiCore (secdealloc/evaluate.cc) with the cores bound to a
 * TracedMemory over the DramSystem and every step timed.
 */
DeallocRunResult
tracedRunMultiCore(Tracer &t, MemLayer &mem, Counter &steps,
                   const WorkloadMix &mix, DeallocMode mode,
                   const DeallocEvalConfig &config)
{
    ControllerConfig cc;
    if (config.dram_channels > 1)
        cc.map_scheme = MapScheme::RowChannelBankColumn;
    DramSystem system(DramConfig::ddr3_1600(config.dram_capacity_mb,
                                            config.dram_channels),
                      cc);
    TracedMemory traced(system, t, mem);

    CoreConfig core_cfg = config.core;
    core_cfg.dealloc = mode;
    const uint64_t region =
        static_cast<uint64_t>(system.config().capacityBytes()) /
        mix.traces.size();
    std::vector<std::unique_ptr<InOrderCore>> cores;
    for (size_t i = 0; i < mix.traces.size(); ++i) {
        cores.push_back(std::make_unique<InOrderCore>(
            traced, core_cfg, region * i));
        cores[i]->bind(&mix.traces[i]);
    }
    while (true) {
        InOrderCore *next = nullptr;
        for (auto &core : cores)
            if (!core->done() &&
                (!next || core->timeNs() < next->timeNs()))
                next = core.get();
        if (!next)
            break;
        CountedCall c(t, steps);
        next->step();
    }

    double end_ns = 0.0;
    for (auto &core : cores)
        end_ns = std::max(end_ns, core->timeNs());
    const Cycle drained = traced.drainAll();
    end_ns = std::max(end_ns, static_cast<double>(drained) *
                                  system.config().tck_ns);

    DeallocRunResult result;
    result.time_ns = end_ns;
    result.core_stats = cores[0]->stats();
    result.commands = system.totalCounts();
    result.energy_nj = systemEnergyNj(system, end_ns, config.energy);
    addCounts(mem.cmds, result.commands);
    return result;
}

/** Every modeled field, printed exactly, for equality checks. */
std::string
fingerprint(const DeallocRunResult &r)
{
    const CoreStats &s = r.core_stats;
    const CommandCounts &c = r.commands;
    std::ostringstream out;
    out.precision(17);
    out << r.time_ns << ' ' << r.energy_nj << ' ' << s.instructions
        << ' ' << s.loads << ' ' << s.stores << ' ' << s.dealloc_rows
        << ' ' << s.dealloc_lines_zeroed << ' ' << c.act << ' ' << c.pre
        << ' ' << c.rd << ' ' << c.wr << ' ' << c.ref << ' ' << c.refpb
        << ' ' << c.mrs << ' ' << c.codic << ' ' << c.rowclone << ' '
        << c.lisa_rbm << ' ' << c.rd_wr_turnarounds << ' '
        << c.wr_rd_turnarounds;
    return out.str();
}

// --- puf: puf_campaign (codic_run puf_fig5_jaccard) ----------------

/** Times every evaluation of the wrapped PUF. */
class TracedPuf final : public DramPuf
{
  public:
    TracedPuf(const DramPuf &inner, Tracer &t, Counter &evals)
        : inner_(inner), t_(t), evals_(evals)
    {
    }

    const char *name() const override { return inner_.name(); }

    Response evaluate(const SimulatedChip &chip,
                      const Challenge &challenge,
                      const QueryEnv &env) const override
    {
        CountedCall c(t_, evals_);
        return inner_.evaluate(chip, challenge, env);
    }

    Response evaluateFiltered(const SimulatedChip &chip,
                              const Challenge &challenge,
                              const QueryEnv &env) const override
    {
        CountedCall c(t_, evals_);
        return inner_.evaluateFiltered(chip, challenge, env);
    }

    int passesPerEvaluation(bool filtered) const override
    {
        return inner_.passesPerEvaluation(filtered);
    }

  private:
    const DramPuf &inner_;
    Tracer &t_;
    Counter &evals_;
};

/** The three Fig. 5 PUFs with their metric names. */
struct PufSet
{
    DramLatencyPuf latency;
    PrelatPuf prelat;
    CodicSigPuf sig;

    std::vector<std::pair<const DramPuf *, const char *>> all() const
    {
        return {{&latency, "latency"}, {&prelat, "prelat"},
                {&sig, "codic_sig"}};
    }
};

JaccardCampaignConfig
jaccardConfig(const RunOptions &o)
{
    JaccardCampaignConfig cfg;
    cfg.run.seed = paperSeed(o, 7);
    cfg.run.threads = o.threads;
    cfg.pairs = o.scaled(10000);
    return cfg;
}

std::string
fingerprint(const JaccardCampaignResult &r)
{
    std::ostringstream out;
    out.precision(17);
    for (double v : r.intra)
        out << v << ' ';
    out << '|';
    for (double v : r.inter)
        out << ' ' << v;
    return out.str();
}

// --- trng + fleet: fleet_serve (fleet_scaling --store-mmap) --------

FleetConfig
fleetConfig(const RunOptions &o)
{
    FleetConfig fc;
    fc.population_seed = paperSeed(o, 2026);
    fc.devices = static_cast<uint64_t>(o.devicesOr(
        static_cast<int64_t>(o.scaled(1000))));
    fc.shards = o.shardsOr(4);
    fc.dram = moduleFor(o, o.capacityMbOr(1024), o.channelsOr(1));
    fc.dram.scheduler = schedulerFor(o, "batched");
    return fc;
}

TrafficConfig
fleetTraffic(const RunOptions &o)
{
    TrafficConfig tc;
    tc.traffic_seed = paperSeed(o, 41);
    tc.requests = static_cast<uint64_t>(
        o.requestsOr(static_cast<int64_t>(o.scaled(8000))));
    tc.zipf = o.zipfOr(0.9);
    tc.weight_auth = 0.7;
    tc.weight_reenroll = 0.1;
    tc.weight_trng = 0.1;
    tc.weight_dealloc = 0.1;
    tc.offered_rps = 50000.0;
    return tc;
}

AuthConfig
authConfig(const RunOptions &o)
{
    AuthConfig ac;
    ac.threads = o.threads;
    return ac;
}

/** The shard counts fleet_scaling sweeps. */
const std::vector<int> kShardSweep = {1, 2, 4, 8};

struct StoreLayer
{
    Counter *lookup, *put, *contains;

    explicit StoreLayer(Tracer &t)
        : lookup(&t.counter("fleet.store.lookup")),
          put(&t.counter("fleet.store.put")),
          contains(&t.counter("fleet.store.contains"))
    {
    }
};

/** Times the store calls the serving path makes. */
class TracedStore final : public EnrollmentBackend
{
  public:
    TracedStore(EnrollmentBackend &inner, Tracer &t, StoreLayer &l)
        : inner_(inner), t_(t), l_(l)
    {
    }

    uint64_t populationSeed() const override
    {
        return inner_.populationSeed();
    }
    size_t size() const override { return inner_.size(); }

    void put(uint64_t device_id, const Challenge &challenge,
             const Response &signature) override
    {
        CountedCall c(t_, *l_.put);
        inner_.put(device_id, challenge, signature);
    }

    bool contains(uint64_t device_id) const override
    {
        CountedCall c(t_, *l_.contains);
        return inner_.contains(device_id);
    }

    std::shared_ptr<const Response>
    lookup(uint64_t device_id) const override
    {
        CountedCall c(t_, *l_.lookup);
        return inner_.lookup(device_id);
    }

    size_t cacheCapacity() const override
    {
        return inner_.cacheCapacity();
    }
    uint64_t cacheHits() const override { return inner_.cacheHits(); }
    uint64_t cacheMisses() const override
    {
        return inner_.cacheMisses();
    }

  private:
    EnrollmentBackend &inner_;
    Tracer &t_;
    StoreLayer &l_;
};

std::string
fingerprint(const LoadReport &r)
{
    std::ostringstream out;
    out.precision(17);
    out << r.requests;
    for (uint64_t k : r.by_kind)
        out << ' ' << k;
    for (double v :
         {double(r.accepted), double(r.rejected),
          double(r.unknown_device), double(r.reenrolled),
          double(r.trng_bits_delivered), double(r.trng_health_failures),
          double(r.dealloc_rows_cleared), double(r.planned_cache_hits),
          double(r.planned_cache_misses), r.latency_mean_ns,
          r.latency_p50_ns, r.latency_p95_ns, r.latency_p99_ns,
          r.latency_max_ns, r.wait_mean_ns, r.wait_p95_ns,
          r.wait_max_ns, double(r.open_loop), double(r.admission_on),
          double(r.admitted), double(r.shed), double(r.shed_urgent),
          double(r.shed_best_effort), double(r.shed_deadline),
          double(r.shed_queue), double(r.shed_bucket), r.shed_rate,
          r.admitted_urgent_p50_ns, r.admitted_urgent_p99_ns,
          r.total_service_ns, r.total_energy_nj,
          double(r.auth_replayed), r.auth_replay_mean_ns,
          r.auth_replay_p50_ns, r.auth_replay_p99_ns,
          r.auth_replay_max_ns})
        out << ' ' << v;
    for (double v : r.shard_busy_ns)
        out << ' ' << v;
    return out.str();
}

// --- the three workloads -------------------------------------------

struct Args
{
    std::string workload;
    std::string mode = "trace";
    std::string spans;
    RunOptions run;
};

/** Set-up of one workload: its inputs plus their work-unit count. */
struct SetupResult
{
    double setup_s = 0.0;
    double work_units = 0.0;
};

SetupResult
setupOnly(const Args &a)
{
    const RunOptions &o = a.run;
    Tracer t;
    SetupResult r;
    t.begin("setup");
    if (a.workload == "secdealloc_mix") {
        const auto mixes = fig9Mixes(o);
        r.setup_s = seconds(t.end());
        // One InOrderCore::step per trace op, under each mechanism.
        for (const auto &mix : mixes)
            for (const auto &w : mix.traces)
                r.work_units += static_cast<double>(w.ops.size() *
                                                    kModes.size());
    } else if (a.workload == "puf_campaign") {
        const auto chips = buildPaperPopulation();
        r.setup_s = seconds(t.end());
        r.work_units = static_cast<double>(
            2 * PufSet().all().size() * jaccardConfig(o).pairs * 4);
    } else {
        FleetConfig fc = fleetConfig(o);
        MmapEnrollmentStore store(o.store_path);
        fc.population_seed = store.populationSeed();
        fc.shards = kShardSweep.front();
        DeviceFleet fleet(fc);
        const auto stream =
            RequestGenerator(fleetTraffic(o), fc.devices).generate();
        r.setup_s = seconds(t.end());
        r.work_units =
            static_cast<double>(stream.size() * kShardSweep.size());
    }
    return r;
}

struct TraceResult
{
    Metrics metrics;
    double run_s = 0.0;          //!< Traced run phase.
    double untraced_run_s = 0.0; //!< Same inputs, no decorators.
    bool identical = true;
};

TraceResult
traceSecdealloc(Tracer &t, const RunOptions &o)
{
    TraceResult r;
    const DeallocEvalConfig cfg = deallocConfig(o);
    t.begin("sim.workload_gen");
    const auto mixes = fig9Mixes(o);
    r.metrics["sim.workload_gen_s"] = seconds(t.end());

    MemLayer mem(t);
    Counter &steps = t.counter("sim.core.step");
    std::vector<std::string> traced;
    t.begin("run");
    for (const auto &mix : mixes)
        for (DeallocMode mode : kModes) {
            ScopedSpan s(t, "secdealloc.run_multi_core");
            traced.push_back(fingerprint(
                tracedRunMultiCore(t, mem, steps, mix, mode, cfg)));
        }
    r.run_s = seconds(t.end());

    t.begin("untraced");
    size_t i = 0;
    for (const auto &mix : mixes)
        for (DeallocMode mode : kModes)
            r.identical &= fingerprint(runMultiCore(mix, mode, cfg)) ==
                           traced[i++];
    r.untraced_run_s = seconds(t.end());

    Metrics &m = r.metrics;
    m["sim.core.steps"] = static_cast<double>(steps.calls);
    m["sim.core.self_s"] = seconds(steps.selfNs());
    m["sim.core.ns_per_step"] =
        steps.calls ? static_cast<double>(steps.selfNs()) /
                          static_cast<double>(steps.calls)
                    : 0.0;
    memMetrics(m, mem);
    return r;
}

TraceResult
tracePuf(Tracer &t, const RunOptions &o)
{
    TraceResult r;
    t.begin("puf.population_build");
    const auto chips = buildPaperPopulation();
    r.metrics["puf.population_build_s"] = seconds(t.end());

    const PufSet pufs;
    const JaccardCampaignConfig cfg = jaccardConfig(o);
    std::vector<std::string> traced;
    t.begin("run");
    for (bool ddr3l : {false, true}) {
        const auto subset = filterByVoltage(chips, ddr3l);
        for (const auto &[puf, name] : pufs.all()) {
            const TracedPuf tp(
                *puf, t, t.counter(std::string("puf.") + name));
            ScopedSpan s(t, "puf.campaign");
            traced.push_back(
                fingerprint(runJaccardCampaign(tp, subset, cfg)));
        }
    }
    r.run_s = seconds(t.end());

    t.begin("untraced");
    size_t i = 0;
    for (bool ddr3l : {false, true}) {
        const auto subset = filterByVoltage(chips, ddr3l);
        for (const auto &[puf, name] : pufs.all())
            r.identical &= fingerprint(runJaccardCampaign(
                               *puf, subset, cfg)) == traced[i++];
    }
    r.untraced_run_s = seconds(t.end());

    for (const auto &[puf, name] : pufs.all()) {
        const Counter &c = t.counter(std::string("puf.") + name);
        const std::string p = std::string("puf.") + name;
        r.metrics[p + ".evals"] = static_cast<double>(c.calls);
        r.metrics[p + ".self_s"] = seconds(c.selfNs());
        r.metrics[p + ".us_per_eval"] =
            c.calls ? static_cast<double>(c.selfNs()) / 1e3 /
                          static_cast<double>(c.calls)
                    : 0.0;
    }
    r.metrics["puf.campaign.self_s"] =
        seconds(t.spanSelfNs("puf.campaign"));
    return r;
}

TraceResult
traceFleet(Tracer &t, const RunOptions &o)
{
    TraceResult r;
    const FleetConfig proto = fleetConfig(o);
    const TrafficConfig tc = fleetTraffic(o);
    const AuthConfig ac = authConfig(o);
    StoreLayer sl(t);
    Counter &enroll = t.counter("trng.enroll");

    // The same per-point sequence as fleet_scaling --store-mmap: a
    // fresh mapping, fleet and service per swept shard count. The
    // first point's store open and stream generation happen before
    // the first simulated event (set-up); the rest run inside it.
    std::vector<std::string> traced;
    std::vector<FleetRequest> stream;
    uint64_t hits = 0, misses = 0, overlay = 0, requests = 0;
    uint64_t reenrolled = 0, materialized = 0;
    int64_t open_ns = 0;
    int64_t run_start = 0;
    for (int shards : kShardSweep) {
        t.begin("fleet.store.open");
        MmapEnrollmentStore store(o.store_path);
        open_ns += t.end();
        FleetConfig fc = proto;
        fc.shards = shards;
        fc.population_seed = store.populationSeed();
        DeviceFleet fleet(fc);
        if (stream.empty()) {
            t.begin("fleet.request_gen");
            stream = RequestGenerator(tc, fc.devices).generate();
            t.end();
            run_start = t.nowNs();
        }
        TracedStore ts(store, t, sl);
        AuthService service(fleet, ts, ac);

        // Materialize every TRNG target first, so the CodicTrng
        // enrollment scan is timed on its own; devices are pure
        // functions of (population seed, id), so the served result
        // cannot change.
        {
            ScopedSpan s(t, "trng.enroll");
            std::unordered_set<uint64_t> seen;
            for (const FleetRequest &req : stream)
                if (req.kind == RequestKind::TrngDraw &&
                    seen.insert(req.device_id).second) {
                    CountedCall c(t, enroll);
                    fleet.trng(req.device_id);
                }
        }
        t.begin("fleet.auth.prepare");
        AuthService::Execution exec = service.prepare(stream);
        t.end();
        for (size_t shard = 0; shard < exec.batches.size(); ++shard) {
            ScopedSpan s(t, "fleet.auth.run_shard");
            service.runShard(exec, shard);
        }
        t.begin("fleet.auth.finalize");
        const LoadReport report = service.finalize(exec);
        t.end();

        traced.push_back(fingerprint(report));
        hits += store.cacheHits();
        misses += store.cacheMisses();
        overlay += store.overlayRecords();
        requests += report.requests;
        reenrolled += report.reenrolled;
        materialized = std::max<uint64_t>(materialized,
                                          fleet.instantiatedDevices());
    }
    r.run_s = seconds(t.nowNs() - run_start);

    t.begin("untraced");
    for (size_t i = 0; i < kShardSweep.size(); ++i) {
        MmapEnrollmentStore store(o.store_path);
        FleetConfig fc = proto;
        fc.shards = kShardSweep[i];
        fc.population_seed = store.populationSeed();
        DeviceFleet fleet(fc);
        AuthService service(fleet, store, ac);
        r.identical &= fingerprint(service.execute(stream)) == traced[i];
    }
    r.untraced_run_s = seconds(t.end());

    Metrics &m = r.metrics;
    m["trng.enroll.devices"] = static_cast<double>(enroll.calls);
    m["trng.enroll.self_s"] = seconds(enroll.selfNs());
    m["trng.enroll.ms_per_device"] =
        enroll.calls ? static_cast<double>(enroll.selfNs()) / 1e6 /
                           static_cast<double>(enroll.calls)
                     : 0.0;
    m["fleet.store.open_s"] = seconds(open_ns);
    for (const auto &[name, c] :
         {std::pair<const char *, Counter *>{"lookup", sl.lookup},
          {"put", sl.put},
          {"contains", sl.contains}}) {
        m[std::string("fleet.store.") + name + ".calls"] =
            static_cast<double>(c->calls);
        m[std::string("fleet.store.") + name + ".self_s"] =
            seconds(c->selfNs());
    }
    m["fleet.store.cache_hit_ratio"] =
        hits + misses ? static_cast<double>(hits) /
                            static_cast<double>(hits + misses)
                      : 0.0;
    m["fleet.store.overlay_records"] = static_cast<double>(overlay);
    m["fleet.device.materialized"] = static_cast<double>(materialized);
    m["fleet.auth.prepare_s"] =
        seconds(t.spanTotalNs("fleet.auth.prepare"));
    m["fleet.auth.run_shard.self_s"] =
        seconds(t.spanSelfNs("fleet.auth.run_shard"));
    m["fleet.auth.finalize_s"] =
        seconds(t.spanTotalNs("fleet.auth.finalize"));
    m["fleet.auth.requests"] = static_cast<double>(requests);
    m["fleet.auth.reenrolled"] = static_cast<double>(reenrolled);
    return r;
}

/**
 * Every per-layer metric, in one fixed set for every workload: a
 * layer the workload never calls reads 0, which is the prediction
 * for the workloads that bypass it.
 */
Metrics
allLayerMetrics(Tracer &t, const TraceResult &r)
{
    Metrics m;
    for (const char *k :
         {"sim.workload_gen_s", "sim.core.steps", "sim.core.self_s",
          "sim.core.ns_per_step", "puf.population_build_s",
          "puf.campaign.self_s", "trng.enroll.devices",
          "trng.enroll.self_s", "trng.enroll.ms_per_device",
          "fleet.store.open_s", "fleet.store.lookup.calls",
          "fleet.store.lookup.self_s", "fleet.store.put.calls",
          "fleet.store.put.self_s", "fleet.store.contains.calls",
          "fleet.store.contains.self_s", "fleet.store.cache_hit_ratio",
          "fleet.store.overlay_records", "fleet.device.materialized",
          "fleet.auth.prepare_s", "fleet.auth.run_shard.self_s",
          "fleet.auth.finalize_s", "fleet.auth.requests",
          "fleet.auth.reenrolled"})
        m[k] = 0.0;
    for (const char *p : {"codic_sig", "prelat", "latency"})
        for (const char *s : {".evals", ".self_s", ".us_per_eval"})
            m[std::string("puf.") + p + s] = 0.0;
    if (!r.metrics.count("mem.submit.calls"))
        memMetrics(m, MemLayer(t));
    for (const auto &[k, v] : r.metrics)
        m[k] = v;
    m["trace.overhead_frac"] =
        (r.run_s - r.untraced_run_s) / r.untraced_run_s;
    return m;
}

void
printJson(const Metrics &m)
{
    std::printf("{");
    bool first = true;
    for (const auto &[k, v] : m) {
        std::printf("%s\"%s\":%.17g", first ? "" : ",", k.c_str(), v);
        first = false;
    }
    std::printf("}\n");
}

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench_trace: %s\nusage: perfbench_trace "
                 "--workload secdealloc_mix|puf_campaign|fleet_serve "
                 "[--mode setup|trace|make-store] [--seed N] "
                 "[--scale F] [--threads N] [--devices N] "
                 "[--store FILE] [--spans FILE]\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--mode")
            a.mode = v;
        else if (flag == "--spans")
            a.spans = v;
        else if (flag == "--seed")
            a.run.seed = std::stoull(v);
        else if (flag == "--scale")
            a.run.scale = std::stod(v);
        else if (flag == "--threads")
            a.run.threads = std::stoi(v);
        else if (flag == "--devices")
            a.run.devices = std::stoll(v);
        else if (flag == "--store")
            a.run.store_path = v;
        else
            usage("unknown flag " + flag);
    }
    if (a.workload != "secdealloc_mix" && a.workload != "puf_campaign" &&
        a.workload != "fleet_serve")
        usage("unknown workload '" + a.workload + "'");
    if (a.mode != "setup" && a.mode != "trace" && a.mode != "make-store")
        usage("unknown mode '" + a.mode + "'");
    if (a.workload == "fleet_serve" && a.run.store_path.empty())
        usage("fleet_serve needs --store");
    // The tracer's open-call stack belongs to one thread.
    if (a.mode == "trace" && a.run.threads != 1)
        usage("--mode trace needs --threads 1");
    if (!(a.run.scale > 0.0 && a.run.scale <= 1.0))
        usage("--scale must be in (0, 1]");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    try {
        if (a.mode == "make-store") {
            const FleetConfig fc = fleetConfig(a.run);
            writeSyntheticStore(a.run.store_path, fc.population_seed,
                                fc.devices, fc.segment_bits, 24);
            return 0;
        }
        if (a.mode == "setup") {
            const SetupResult r = setupOnly(a);
            printJson({{"setup_s", r.setup_s},
                       {"work_units", r.work_units}});
            return 0;
        }
        Tracer t;
        const TraceResult r =
            a.workload == "secdealloc_mix" ? traceSecdealloc(t, a.run)
            : a.workload == "puf_campaign" ? tracePuf(t, a.run)
                                           : traceFleet(t, a.run);
        if (!a.spans.empty()) {
            std::ofstream out(a.spans);
            t.writeJson(out);
        }
        Metrics m = allLayerMetrics(t, r);
        m["run_s"] = r.run_s;
        m["untraced_run_s"] = r.untraced_run_s;
        m["identical"] = r.identical ? 1.0 : 0.0;
        printJson(m);
        if (!r.identical) {
            std::fprintf(stderr, "perfbench_trace: traced modeled "
                                 "result differs from the untraced "
                                 "entry point\n");
            return 1;
        }
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_trace: %s\n", e.what());
        return 1;
    }
}