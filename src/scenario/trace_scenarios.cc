/**
 * @file
 * Trace record/replay scenarios (repository extension): the consumer
 * side of the src/trace subsystem.
 *
 *  - trace_replay: replay a recorded DRAM-level trace (--trace FILE,
 *    rescaled by --trace-speed) against the scheduler under study;
 *    with no file, a built-in cache-filtered mysql trace stands in,
 *    so the scenario is runnable - and deterministic - out of the
 *    box.
 *  - trace_filter_ablation: sweep the modeled LLC size over one raw
 *    CPU-level trace and measure how much DRAM traffic the cache
 *    filter absorbs, and what the surviving stream costs to replay.
 *  - trace_vs_synthetic: the same record count replayed as (a) the
 *    cache-filtered trace, with its bursty phase structure, and (b)
 *    a rate-matched uniform synthetic stream, across the scheduler
 *    presets - quantifying what trace-driven evaluation sees that
 *    synthetic streams miss.
 *
 * Determinism: with no --trace file every structured row is a pure
 * function of (seed, scale); replay itself is single-threaded and
 * demand-driven, so --threads never changes output. With a --trace
 * file the output is a pure function of (file, trace_speed, sched) -
 * the CI smoke records once at --threads 1 and asserts the replay
 * JSON is byte-identical at --threads 1 and 8.
 */

#include "scenario/builtin.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "dram/system.h"
#include "scenario/registry.h"
#include "scenario/scenario_util.h"
#include "sim/workloads.h"
#include "trace/cache_filter.h"
#include "trace/replay.h"
#include "trace/trace_io.h"

namespace codic {

namespace {

/** The built-in trace source: one cache-filtered mysql run. */
struct BuiltinTrace
{
    std::vector<TraceRecord> raw;  //!< CPU-level load/store/flush.
    std::vector<TraceRecord> dram; //!< Post-LLC miss stream.
    CacheFilterStats stats;
};

std::vector<TraceRecord>
rawMysqlTrace(RunContext &ctx)
{
    WorkloadParams params = benchmarkParams(
        "mysql", paperSeed(ctx.options(), 1907));
    params.phases = ctx.scaled(params.phases);
    // Compress the working set to LLC scale: with mysql's real 96 MB
    // footprint every reference is a compulsory miss and the filter
    // has nothing to show; at 2 MB the reuse the cache model exists
    // to capture actually happens.
    params.footprint_bytes = 2ull << 20;
    return rawTraceFromWorkload(generateWorkload(params));
}

BuiltinTrace
builtinTrace(RunContext &ctx)
{
    BuiltinTrace t;
    t.raw = rawMysqlTrace(ctx);
    CacheFilter filter{CacheFilterConfig{}};
    t.dram = filter.filter(t.raw);
    t.stats = filter.stats();
    return t;
}

/** One replay of a DRAM-level record stream on a fresh system. */
struct ReplayOutcome
{
    ReplayReport report;
    CommandCounts counts;
};

ReplayOutcome
replayOn(const DramConfig &cfg,
         const std::vector<TraceRecord> &records, double speed)
{
    DramSystem sys(cfg);
    ReplayOptions ro;
    ro.speed = speed;
    TraceReplaySource source(sys, ro);
    source.play(records);
    ReplayOutcome out;
    out.report = source.finish();
    out.counts = sys.totalCounts();
    return out;
}

void
runTraceReplay(RunContext &ctx)
{
    const RunOptions &opt = ctx.options();

    // A trace records whatever module it was captured on (a fleet
    // campaign spans a far larger address space than one device), so
    // size the replay module from the trace header's max address:
    // next power of two of MB covering it, 256 MB floor. An explicit
    // --capacity-mb still wins.
    std::unique_ptr<TraceReader> reader;
    int64_t default_capacity_mb = 256;
    if (!opt.trace_path.empty()) {
        reader = std::make_unique<TraceReader>(opt.trace_path);
        const uint64_t needed_mb =
            std::bit_ceil(reader->maxAddr() / (1ull << 20) + 1);
        default_capacity_mb = std::max<int64_t>(
            default_capacity_mb, static_cast<int64_t>(needed_mb));
    }
    DramConfig cfg = moduleFor(opt,
                               opt.capacityMbOr(default_capacity_mb),
                               opt.channelsOr(1));
    cfg.scheduler = schedulerFor(opt, "batched");
    DramSystem sys(cfg);
    ReplayOptions ro;
    ro.speed = opt.trace_speed;
    TraceReplaySource source(sys, ro);

    if (reader) {
        ctx.note("replaying " + opt.trace_path + ": " +
                 std::to_string(reader->recordCount()) +
                 " records recorded by scenario '" +
                 reader->meta().scenario + "' (seed " +
                 std::to_string(reader->meta().seed) + ", format v" +
                 std::to_string(reader->version()) + ")");
        TraceCursor cursor = reader->cursor();
        source.play(cursor);
    } else {
        const BuiltinTrace t = builtinTrace(ctx);
        ctx.note("no --trace file given; replaying the built-in "
                 "cache-filtered mysql trace (" +
                 std::to_string(t.raw.size()) +
                 " raw records -> " + std::to_string(t.dram.size()) +
                 " post-LLC records)");
        source.play(t.dram);
    }

    const ReplayReport rep = source.finish();
    const CommandCounts counts = sys.totalCounts();
    const std::vector<double> lat =
        latenciesUs(cfg, rep.read_latencies);
    ctx.row("trace replay",
            ResultRow()
                .add("records", rep.records)
                .add("reads", rep.reads)
                .add("writes", rep.writes)
                .add("rowops", rep.rowops)
                .add("trace_speed", opt.trace_speed)
                .add("makespan_ms",
                     cfg.cyclesToNs(rep.makespan) / 1e6)
                .add("read_p50_us",
                     lat.empty() ? 0.0 : percentile(lat, 50))
                .add("read_p95_us",
                     lat.empty() ? 0.0 : percentile(lat, 95))
                .add("read_p99_us",
                     lat.empty() ? 0.0 : percentile(lat, 99))
                .add("activations", counts.act)
                .add("bus_turnarounds", counts.rd_wr_turnarounds +
                                            counts.wr_rd_turnarounds));
    ctx.note("Replay preserves the trace's inter-arrival timing "
             "(divided by trace_speed), so the scheduler sees the "
             "recorded burst structure, not a smoothed average "
             "rate. Record a trace from any scenario with "
             "--record-trace FILE and feed it back with --trace "
             "FILE.");
}

void
runTraceFilterAblation(RunContext &ctx)
{
    const RunOptions &opt = ctx.options();
    const std::vector<TraceRecord> raw = rawMysqlTrace(ctx);

    DramConfig cfg =
        moduleFor(opt, opt.capacityMbOr(256), opt.channelsOr(1));
    cfg.scheduler = SchedulerPolicy::preset("batched");

    for (const int llc_kb : {64, 128, 256, 512, 1024, 2048}) {
        CacheFilterConfig fc;
        fc.llc_bytes = static_cast<uint64_t>(llc_kb) * 1024ull;
        CacheFilter filter(fc);
        const std::vector<TraceRecord> dram = filter.filter(raw);
        const CacheFilterStats &stats = filter.stats();
        const ReplayOutcome out = replayOn(cfg, dram, 1.0);
        ctx.row(
            "LLC size vs post-filter DRAM traffic",
            ResultRow()
                .add("llc_kb", llc_kb)
                .add("raw_records", stats.records_in)
                .add("hits", stats.hits)
                .add("misses", stats.misses)
                .add("writebacks", stats.writebacks)
                .add("hit_rate", stats.hitRate())
                .add("dram_records", stats.records_out)
                .add("traffic_reduction_x",
                     stats.records_out
                         ? static_cast<double>(stats.records_in) /
                               static_cast<double>(stats.records_out)
                         : 0.0)
                .add("replay_makespan_ms",
                     cfg.cyclesToNs(out.report.makespan) / 1e6));
    }
    ctx.note("The cache filter keeps only the references that miss "
             "the modeled LLC (plus the dirty writebacks those "
             "misses evict), so the committed trace shrinks with "
             "LLC size while staying exact at the DRAM interface - "
             "the Pin/Bochs -> DRAM-trace pipeline of the paper's "
             "Appendix A methodology.");
}

void
runTraceVsSynthetic(RunContext &ctx)
{
    const RunOptions &opt = ctx.options();
    const BuiltinTrace t = builtinTrace(ctx);

    // Rate-matched synthetic double: same record count, same
    // read/write split, uniform 64 B-aligned addresses over the
    // workload footprint, constant inter-arrival equal to the
    // trace's mean - everything the trace has except its burst
    // structure and locality.
    uint64_t reads = 0;
    for (const TraceRecord &r : t.dram)
        reads += r.kind == TraceOpKind::Read;
    const uint64_t span =
        t.dram.empty() ? 0
                       : t.dram.back().tick - t.dram.front().tick;
    const uint64_t gap =
        t.dram.size() > 1
            ? std::max<uint64_t>(1, span / (t.dram.size() - 1))
            : 1;
    const uint64_t footprint = 2ull << 20; // rawMysqlTrace's.
    SplitMix64 rng(paperSeed(opt, 0xC0D1C));
    std::vector<TraceRecord> synthetic;
    synthetic.reserve(t.dram.size());
    for (size_t i = 0; i < t.dram.size(); ++i) {
        TraceRecord r;
        r.kind = i < reads ? TraceOpKind::Read : TraceOpKind::Write;
        r.addr = (rng.next() % footprint) & ~63ull;
        r.tick = static_cast<uint64_t>(i) * gap;
        synthetic.push_back(r);
    }
    // Interleave kinds deterministically so reads and writes mix at
    // the trace's ratio instead of forming two monolithic runs.
    for (size_t i = 0; i < synthetic.size(); ++i) {
        const uint64_t pick = rng.next() % synthetic.size();
        std::swap(synthetic[i].kind, synthetic[pick].kind);
    }

    for (const char *preset : {"eager", "batched", "aggressive"}) {
        DramConfig cfg =
            moduleFor(opt, opt.capacityMbOr(256), opt.channelsOr(1));
        cfg.scheduler = SchedulerPolicy::preset(preset);
        struct Source
        {
            const char *name;
            const std::vector<TraceRecord> *records;
        };
        for (const Source src : {Source{"recorded_trace", &t.dram},
                                 Source{"synthetic_uniform",
                                        &synthetic}}) {
            const ReplayOutcome out =
                replayOn(cfg, *src.records, opt.trace_speed);
            const std::vector<double> lat =
                latenciesUs(cfg, out.report.read_latencies);
            double mean = 0.0;
            for (const double v : lat)
                mean += v;
            if (!lat.empty())
                mean /= static_cast<double>(lat.size());
            ctx.row("trace vs synthetic across scheduler presets",
                    ResultRow()
                        .add("sched", preset)
                        .add("source", src.name)
                        .add("records", out.report.records)
                        .add("makespan_ms",
                             cfg.cyclesToNs(out.report.makespan) /
                                 1e6)
                        .add("activations", out.counts.act)
                        .add("bus_turnarounds",
                             out.counts.rd_wr_turnarounds +
                                 out.counts.wr_rd_turnarounds)
                        .add("read_mean_us", mean)
                        .add("read_p95_us",
                             lat.empty() ? 0.0
                                         : percentile(lat, 95)));
        }
    }
    ctx.note("The synthetic double matches the trace's record "
             "count, read/write ratio, and mean arrival rate but "
             "not its phase bursts or reuse locality - the gap "
             "between the two rows of each preset is what "
             "trace-driven evaluation captures and rate-matched "
             "synthetic streams miss.");
}

} // namespace

void
registerTraceScenarios(ScenarioRegistry &registry)
{
    registry.add(makeScenario(
        "trace_replay",
        "Replay a recorded DRAM-level trace (--trace FILE, "
        "--trace-speed F) against the scheduler under study; "
        "built-in cache-filtered mysql trace when no file is given",
        runTraceReplay));
    registry.add(makeScenario(
        "trace_filter_ablation",
        "Sweep the modeled LLC size over one raw CPU-level trace: "
        "cache-filter hit/miss/writeback stats and the replay cost "
        "of the surviving DRAM stream",
        runTraceFilterAblation));
    registry.add(makeScenario(
        "trace_vs_synthetic",
        "Replay the cache-filtered trace vs a rate-matched uniform "
        "synthetic stream across scheduler presets",
        runTraceVsSynthetic));
}

} // namespace codic
