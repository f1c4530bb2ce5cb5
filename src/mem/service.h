/**
 * @file
 * The transaction-based memory-service interface consumed by the
 * trace-driven cores, the secure-deallocation paths, and the fleet's
 * replay engine. Two implementations exist: MemoryController (one
 * channel's FR-FCFS front-end) and DramSystem (N channels; routes
 * each transaction to the owning channel's controller). Consumer
 * code is written against this interface so a workload runs
 * unchanged on 1 or many channels.
 *
 * The API is asynchronous: callers submit() a MemTransaction and
 * receive a Ticket; the controller owns bounded read *and* write
 * queues (paper Table 5: 64/64 entries), schedules FR-FCFS with a
 * configurable read-reordering window, and - when
 * SchedulerPolicy::auto_refresh is on - injects REF every tREFI,
 * postponing up to the JEDEC 8-deferred limit. Ticket resolution is
 * demand-driven (the simulation is event-based, not cycle-ticked):
 *
 *  - completionOf(ticket) forces the transaction (and everything the
 *    schedule orders before it) to issue and returns its completion
 *    cycle, retiring the ticket. Each ticket resolves exactly once.
 *  - acceptedAt(ticket) is the cycle the transaction entered its
 *    queue (== arrival unless a full write queue stalled acceptance:
 *    the back-pressure that bounds software-zeroing throughput).
 *  - retire(ticket) discards a ticket whose completion the caller
 *    will never ask for (fire-and-forget writebacks), keeping
 *    per-ticket bookkeeping bounded by the number of outstanding
 *    queries, not by campaign length.
 *  - poll(now) advances the scheduler to `now`: services every
 *    queued request that has arrived and catches up refresh debt.
 *  - drainAll() services everything still queued (reads, row ops,
 *    buffered writes) and returns the cycle the service is
 *    quiescent.
 *
 * serve(txn) is the blocking entry point: it returns what submit +
 * resolve would (a read's or row op's completion cycle, a write's
 * acceptance cycle) without handing out a ticket. Callers that block
 * on every transaction they issue - the in-order cores, in-place row
 * ops, fire-and-forget writes - use it; MemoryController::serve says
 * when it skips the ticket round trip. The blocking helpers at the
 * bottom are one-line wrappers over serve().
 */

#ifndef CODIC_MEM_SERVICE_H
#define CODIC_MEM_SERVICE_H

#include <cstddef>
#include <cstdint>
#include <functional>

#include "dram/config.h"
#include "mem/transaction.h"

namespace codic {

class AddressMap;

/**
 * Completion notification for the co-simulation path: invoked with
 * the ticket and its completion cycle when the transaction's command
 * sequence finishes (see MemoryService::onComplete).
 */
using CompletionCallback = std::function<void(Ticket, Cycle)>;

/** Transaction-level service over one channel or a whole system. */
class MemoryService
{
  public:
    virtual ~MemoryService() = default;

    /**
     * Submit a transaction. Reads and row ops enter the bounded read
     * queue (a full queue services older requests until a slot
     * frees); writes enter the bounded write queue, stalling
     * acceptance when every slot is occupied by an in-flight write.
     * @return Ticket resolving the transaction (never
     *         kInvalidTicket).
     */
    virtual Ticket submit(const MemTransaction &txn) = 0;

    /** Cycle the transaction was accepted into its queue. */
    virtual Cycle acceptedAt(Ticket ticket) const = 0;

    /**
     * Completion cycle of the transaction, forcing it (and everything
     * scheduled before it) to issue if still queued. Retires the
     * ticket: each ticket may be resolved exactly once.
     */
    virtual Cycle completionOf(Ticket ticket) = 0;

    /** Drop a ticket whose completion will never be queried. */
    virtual void retire(Ticket ticket) = 0;

    /**
     * Register a completion callback on a live ticket (the
     * co-simulation path: a TickEngine producer submits without
     * blocking and learns the completion when the scheduler services
     * the transaction under poll()/drainAll()/another consumer's
     * resolution). Registering transfers ticket ownership to the
     * service: the ticket auto-retires when the callback fires, so
     * the caller must not also call completionOf()/retire() on it.
     * A ticket whose transaction already completed fires immediately
     * (before this call returns). Callbacks observe a consistent
     * scheduler: they must not re-enter the service (no submit /
     * completionOf / poll from inside a callback) - record the event
     * and act on the next producer tick, as dramsim3 frontends do.
     */
    virtual void onComplete(Ticket ticket, CompletionCallback fn) = 0;

    /**
     * Advance the scheduler to `now`: issue every queued read/row-op
     * whose arrival is <= now and catch up refresh debt beyond the
     * postponement allowance. @return Requests serviced by the call.
     */
    virtual size_t poll(Cycle now) = 0;

    /**
     * Service everything still queued - reads, row ops, and buffered
     * writes - and return the cycle the service is quiescent (last
     * issue or write-burst completion). Legally postponed refreshes
     * (debt within SchedulerPolicy::refresh_postpone) stay postponed.
     */
    virtual Cycle drainAll() = 0;

    /** Queued (not yet issued) transactions, all kinds. */
    virtual size_t inFlightCount() const = 0;

    /** The address map in use. */
    virtual const AddressMap &map() const = 0;

    /** The DRAM configuration behind this service. */
    virtual const DramConfig &dramConfig() const = 0;

    /**
     * Blocking entry point: service `txn` and return a read's or row
     * op's completion cycle, or a write's acceptance cycle (== its
     * arrival unless the write queue is full; the write's own
     * completion is not tracked). Equivalent to submit + completionOf
     * (a write: submit + acceptedAt + retire), which is this default;
     * MemoryController and DramSystem override it to skip the ticket
     * round trip where the result cannot differ.
     */
    virtual Cycle serve(const MemTransaction &txn)
    {
        const Ticket t = submit(txn);
        if (txn.kind != TxnKind::Write)
            return completionOf(t);
        const Cycle accepted = acceptedAt(t);
        retire(t);
        return accepted;
    }

    // --- Blocking helpers (paper campaigns; wrappers over serve) ---

    /** Service a read to completion (the data burst's end). */
    Cycle read(uint64_t phys_addr, Cycle now, uint64_t origin = 0)
    {
        return serve(MemTransaction::makeRead(phys_addr, now, origin));
    }

    /** Accept a fire-and-forget write; returns the acceptance cycle. */
    Cycle write(uint64_t phys_addr, Cycle now, uint64_t origin = 0)
    {
        return serve(MemTransaction::makeWrite(phys_addr, now, origin));
    }

    /**
     * Execute a bulk row operation (deterministic overwrite of one
     * row) to completion with the selected mechanism.
     */
    Cycle rowOp(uint64_t row_addr, Cycle now, RowOpMechanism mech,
                int64_t reserved_row = 0)
    {
        return serve(MemTransaction::makeRowOp(row_addr, now, mech,
                                               reserved_row));
    }
};

} // namespace codic

#endif // CODIC_MEM_SERVICE_H
