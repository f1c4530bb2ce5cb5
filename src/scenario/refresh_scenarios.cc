/**
 * @file
 * Refresh-aware scheduling ablation (repository extension): sweeps
 * of the transaction-based controller's refresh and read-queue
 * knobs.
 *
 *  - Refresh postponement: with auto-injected REF every tREFI, how
 *    the JEDEC deferral allowance (up to 8 postponed REFs) trades
 *    mid-burst REF stalls against catch-up storms at burst onset,
 *    measured as read-latency percentiles over a bursty open-loop
 *    read stream.
 *  - Read-reordering window: how letting row-hit reads bypass older
 *    row-miss reads inside the FR-FCFS window collapses a
 *    row-conflict read stream's PRE/ACT thrash, measured as
 *    activations and read-latency percentiles.
 *
 * Determinism: every structured row is a pure function of
 * (seed, scale). The sweeps pin their own policy values, so --sched
 * does not change this scenario's output, and no CampaignEngine is
 * involved, so --threads cannot either.
 */

#include "scenario/builtin.h"

#include <algorithm>
#include <vector>

#include "common/stats.h"
#include "dram/system.h"
#include "scenario/registry.h"
#include "scenario/scenario_util.h"
#include "scenario/scheduler_workloads.h"

namespace codic {

namespace {

void
runAblationRefresh(RunContext &ctx)
{
    const int64_t capacity_mb = ctx.options().capacityMbOr(256);
    const int channels = ctx.options().channelsOr(1);

    // --- Sweep 1: REF postponement vs read-latency tail. ---
    {
        const int64_t bursts =
            static_cast<int64_t>(ctx.scaled(12));
        for (const int postpone : {0, 1, 2, 4, 8}) {
            DramConfig cfg =
                moduleFor(ctx.options(), capacity_mb, channels);
            cfg.scheduler = SchedulerPolicy::preset("batched");
            cfg.scheduler.auto_refresh = true;
            cfg.scheduler.refresh_postpone = postpone;
            DramSystem sys(cfg);
            // Each busy span covers ~2.5 tREFI (2000 reads, 8 cycles
            // apart), so 2-3 REFs fall due while reads are pending;
            // the postponement allowance decides whether they stall
            // the burst mid-stream or defer into the 4-tREFI quiet
            // gap that follows.
            const int reads_per_burst = 2000;
            const Cycle gap = 4 * cfg.timing.trefi;
            std::vector<Cycle> lat;
            const Cycle done = runRefreshReadWorkload(
                sys, bursts, reads_per_burst, 8, gap, &lat);
            const CommandCounts counts = sys.totalCounts();
            const double elapsed_intervals =
                static_cast<double>(done) /
                static_cast<double>(cfg.timing.trefi);
            const std::vector<double> us = latenciesUs(cfg, lat);
            ctx.row("refresh postponement vs read latency",
                    ResultRow()
                        .add("refresh_postpone", postpone)
                        .add("reads", counts.rd)
                        .add("refs", counts.ref)
                        .add("elapsed_trefi_intervals",
                             elapsed_intervals)
                        .add("read_p50_us", percentile(us, 50.0))
                        .add("read_p95_us", percentile(us, 95.0))
                        .add("read_max_us",
                             *std::max_element(us.begin(), us.end()))
                        .add("makespan_us",
                             cfg.cyclesToNs(done) / 1e3));
        }
        ctx.note("The controller injects REF per rank every tREFI. "
                 "REFs coming due while the channel is idle issue on "
                 "time for free; REFs coming due mid-burst are "
                 "deferrable up to refresh_postpone (JEDEC DDR3 "
                 "allows 8). A zero allowance pays every mid-burst "
                 "REF as a tRFC stall under pending reads; a "
                 "sufficient allowance slides them into the next "
                 "quiet gap, taking refresh off the read-latency "
                 "tail entirely.");
    }

    // --- Sweep 2: read-reordering window vs row-conflict thrash. ---
    {
        const int64_t waves = static_cast<int64_t>(ctx.scaled(60));
        const int wave_size = 16;
        for (const int window : {1, 2, 4, 8, 16}) {
            DramConfig cfg =
                moduleFor(ctx.options(), capacity_mb, channels);
            cfg.scheduler = SchedulerPolicy::preset("batched");
            cfg.scheduler.read_window = window;
            DramSystem sys(cfg);
            std::vector<Cycle> lat;
            const Cycle done = runReadWindowWorkload(
                sys, waves, wave_size, &lat);
            const CommandCounts counts = sys.totalCounts();
            const std::vector<double> us = latenciesUs(cfg, lat);
            double mean_us = 0.0;
            for (const double u : us)
                mean_us += u;
            mean_us /= static_cast<double>(us.size());
            ctx.row("read-reordering window vs row-conflict stream",
                    ResultRow()
                        .add("read_window", window)
                        .add("reads", counts.rd)
                        .add("activations", counts.act)
                        .add("read_mean_us", mean_us)
                        .add("read_p50_us", percentile(us, 50.0))
                        .add("read_p95_us", percentile(us, 95.0))
                        .add("makespan_us",
                             cfg.cyclesToNs(done) / 1e3));
        }
        ctx.note("read_window = 1 services the read queue in strict "
                 "arrival order, paying a PRE/ACT pair per "
                 "row-alternating read; a wider FR-FCFS window lets "
                 "row-hit reads bypass row-miss heads (bounded by "
                 "the starvation limit), regrouping each wave into "
                 "two row-hit runs.");
    }
}

} // namespace

void
registerRefreshScenarios(ScenarioRegistry &registry)
{
    registry.add(makeScenario(
        "ablation_refresh",
        "Ablation: refresh-aware scheduling - tREFI postponement vs "
        "read-latency tail, and the FR-FCFS read-reordering window "
        "vs row-conflict thrash",
        runAblationRefresh));
}

} // namespace codic
