#include "trace/replay.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "trace/trace_io.h"

namespace codic {

TraceReplaySource::TraceReplaySource(MemoryService &mem,
                                     const ReplayOptions &options)
    : mem_(mem), options_(options)
{
    if (!(options_.speed > 0.0) || std::isinf(options_.speed))
        fatal("trace replay: speed must be finite and > 0, got ",
              options_.speed);
    if (options_.max_inflight_reads < 1)
        fatal("trace replay: max_inflight_reads must be >= 1, got ",
              options_.max_inflight_reads);
}

Cycle
TraceReplaySource::arrivalOf(uint64_t tick)
{
    if (!have_base_) {
        have_base_ = true;
        base_tick_ = tick;
        report_.first_arrival = static_cast<Cycle>(tick);
    }
    // Rescale inter-arrival time from the trace's first record, so
    // the trace starts where it started and speed compresses or
    // stretches everything after it. Pure function of (tick, speed):
    // replays are deterministic.
    const int64_t delta =
        static_cast<int64_t>(tick - base_tick_); // May be negative.
    const Cycle arrival =
        static_cast<Cycle>(base_tick_) +
        static_cast<Cycle>(std::llround(
            static_cast<double>(delta) / options_.speed));
    return std::max<Cycle>(0, arrival);
}

void
TraceReplaySource::resolveOldestRead()
{
    const PendingRead oldest = inflight_.front();
    inflight_.pop_front();
    const Cycle done = mem_.completionOf(oldest.ticket);
    report_.makespan = std::max(report_.makespan, done);
    report_.read_latencies.push_back(done - oldest.arrival);
}

void
TraceReplaySource::step(const TraceRecord &record)
{
    CODIC_ASSERT(!finished_);
    if (isCpuLevel(record.kind))
        fatal("trace replay: record ", report_.records, " is a ",
              traceOpKindName(record.kind),
              " (raw CPU-level trace); replay needs a DRAM-level "
              "trace - run the cache filter first or record one "
              "with --record-trace");
    const Cycle arrival = arrivalOf(record.tick);
    report_.last_arrival = std::max(report_.last_arrival, arrival);
    ++report_.records;
    switch (record.kind) {
    case TraceOpKind::Read: {
        ++report_.reads;
        const Ticket t = mem_.submit(
            MemTransaction::makeRead(record.addr, arrival,
                                     record.origin));
        inflight_.push_back({t, arrival});
        if (static_cast<int>(inflight_.size()) >
            options_.max_inflight_reads)
            resolveOldestRead();
        break;
    }
    case TraceOpKind::Write: {
        ++report_.writes;
        mem_.serve(MemTransaction::makeWrite(record.addr, arrival,
                                             record.origin));
        break;
    }
    case TraceOpKind::RowOp: {
        ++report_.rowops;
        const Cycle done = mem_.serve(MemTransaction::makeRowOp(
            record.addr, arrival,
            static_cast<RowOpMechanism>(record.mech),
            record.reserved_row, record.origin));
        report_.makespan = std::max(report_.makespan, done);
        break;
    }
    default:
        break; // isCpuLevel() already rejected the rest.
    }
}

void
TraceReplaySource::play(TraceCursor &cursor)
{
    TraceRecord record;
    while (cursor.next(record))
        step(record);
}

void
TraceReplaySource::play(const std::vector<TraceRecord> &records)
{
    for (const TraceRecord &record : records)
        step(record);
}

ReplayReport
TraceReplaySource::finish()
{
    if (!finished_) {
        finished_ = true;
        while (!inflight_.empty())
            resolveOldestRead();
        report_.makespan =
            std::max(report_.makespan, mem_.drainAll());
    }
    return report_;
}

} // namespace codic
