/**
 * @file
 * Trace replay: drives a MemoryService from a DRAM-level trace with
 * the original inter-arrival timing (optionally rescaled), closing
 * the record -> replay loop: a trace captured by TraceRecorder from
 * any scenario re-runs as a first-class workload on any
 * DramSystem/scheduler configuration.
 *
 * Replay semantics per record kind:
 *  - Read: submitted at its (rescaled) arrival and resolved through
 *    a bounded in-flight window, so memory stays O(window) while
 *    the scheduler still sees a deep queue; per-read latency
 *    (completion - arrival) is reported.
 *  - Write: fire-and-forget through serve(), buffered and drained
 *    by the SchedulerPolicy under study.
 *  - RowOp: served in place through serve() (bulk row operations
 *    are blocking in every campaign that issues them).
 *
 * Raw CPU-level records (Load/Store/Flush) are rejected loudly:
 * replay needs a DRAM-level trace - run the CacheFilter first, or
 * record with --record-trace (which taps post-LLC submissions).
 */

#ifndef CODIC_TRACE_REPLAY_H
#define CODIC_TRACE_REPLAY_H

#include <cstdint>
#include <deque>
#include <vector>

#include "mem/service.h"
#include "trace/trace_format.h"

namespace codic {

class TraceCursor;

/** Replay tuning. */
struct ReplayOptions
{
    /**
     * Inter-arrival rescale: arrival deltas divide by this, so
     * speed > 1 compresses the trace in time (more pressure on the
     * scheduler) and speed < 1 stretches it. Must be > 0.
     */
    double speed = 1.0;

    /** Bound on unresolved read tickets held at once. */
    int max_inflight_reads = 64;
};

/** Outcome of one replay. */
struct ReplayReport
{
    uint64_t records = 0;
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t rowops = 0;
    Cycle first_arrival = 0;
    Cycle last_arrival = 0;
    Cycle makespan = 0; //!< Quiescence cycle after the final drain.
    std::vector<Cycle> read_latencies; //!< completion - arrival.
};

/** One replay run over a MemoryService. */
class TraceReplaySource
{
  public:
    TraceReplaySource(MemoryService &mem,
                      const ReplayOptions &options = {});

    /** Feed one record. @throws FatalError on a CPU-level record. */
    void step(const TraceRecord &record);

    /** Feed a whole reader stream. */
    void play(TraceCursor &cursor);

    /** Feed an in-memory record vector. */
    void play(const std::vector<TraceRecord> &records);

    /**
     * Resolve outstanding reads, drain buffered writes, and return
     * the report. Idempotent per source instance.
     */
    ReplayReport finish();

  private:
    Cycle arrivalOf(uint64_t tick);
    void resolveOldestRead();

    MemoryService &mem_;
    ReplayOptions options_;
    ReplayReport report_;
    bool have_base_ = false;
    uint64_t base_tick_ = 0;
    bool finished_ = false;

    struct PendingRead
    {
        Ticket ticket;
        Cycle arrival;
    };
    std::deque<PendingRead> inflight_;
};

} // namespace codic

#endif // CODIC_TRACE_REPLAY_H
