/**
 * @file
 * FR-FCFS memory controller (paper Table 5: 64/64-entry read/write
 * queues, FR-FCFS scheduling [119, 176]) over the cycle-accurate
 * DRAM channel, exposed through the transaction-based MemoryService
 * API (mem/service.h).
 *
 * Reads and row ops are submitted into a bounded read queue kept in
 * arrival order and issued on demand: resolving a ticket services
 * everything the schedule orders before it. Within the policy's
 * read-reordering window a row-hit read may bypass older row-miss
 * reads (never across a row op, never past an older same-row
 * request, and a head bypassed kReadStarvationLimit times is
 * force-scheduled), which is the row-hit-first half of FR-FCFS over
 * the read queue.
 *
 * Writes are accepted into a bounded per-channel write queue and
 * buffered: a drain episode starts when pending occupancy crosses
 * the policy's high watermark (whole-queue percentage, or the
 * per-bank count watermark) and flushes row-hit batches (oldest
 * pending write first, coalescing up to
 * SchedulerPolicy::max_drain_batch same-row writes back-to-back)
 * until occupancy falls to the low watermark. Buffering keeps reads
 * ahead of writes on the data bus and pays the rd<->wr turnaround
 * once per drained burst instead of once per write.
 *
 * A write-queue slot is held from acceptance until the write's data
 * burst completes. When every slot is taken, acceptance stalls until
 * the oldest in-flight write completes - the back-pressure that
 * bounds software-zeroing throughput in the TCG and
 * secure-deallocation evaluations. The stall check is strictly
 * channel-local: in a multi-channel module each channel's controller
 * stalls only on its own queue.
 *
 * With SchedulerPolicy::auto_refresh on, the controller injects REF
 * per rank every tREFI, postponing up to refresh_postpone due REFs
 * (JEDEC DDR3: at most 8) while read/write work is pending. With
 * refresh=per-bank the cadence becomes one REFpb every
 * tREFIpb = tREFI / banks, rotating round-robin over the banks, so
 * each bank is still refreshed every tREFI but only the target bank
 * is locked out (for the shorter tRFCpb) per refresh. The paper
 * campaigns keep refresh off (they legally run at power-on before
 * refresh starts), so the eager preset reproduces the published
 * numbers byte-for-byte.
 *
 * With SchedulerPolicy::priority_sched on, the read window becomes
 * priority-aware: among arrived requests in the window the most
 * urgent class (lowest MemTransaction::priority) is scheduled first
 * (row hits preferred within the class), and urgent reads
 * (priority < 0) jump in between write-drain batches. Both bypass
 * forms count against the same kReadStarvationLimit aging rule, so a
 * best-effort head is force-scheduled after at most 16 bypasses -
 * the explicit starvation bound of the QoS mode.
 */

#ifndef CODIC_MEM_CONTROLLER_H
#define CODIC_MEM_CONTROLLER_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/pool.h"
#include "mem/address_map.h"
#include "mem/service.h"
#include "dram/channel.h"
#include "dram/refresh.h"

namespace codic {

/** Controller configuration (paper Table 5 defaults). */
struct ControllerConfig
{
    int read_queue_entries = 64;
    int write_queue_entries = 64;
    MapScheme map_scheme = MapScheme::RowBankColumn;
};

/**
 * Memory controller front-end for one channel.
 *
 * The controller is simulated lazily: requests queue at submit() and
 * push through the channel when a ticket is resolved (or poll /
 * drainAll advances the scheduler), with all JEDEC constraints
 * enforced by DramChannel. FR-FCFS behaviour emerges from the
 * open-row policy plus the read-reordering window: the controller
 * leaves rows open, only precharges on a conflict, and prefers
 * row-hit reads within the window.
 *
 * A controller is a channel-local view: it decodes full physical
 * addresses with the module-wide map, but only accepts requests that
 * land on its own channel. In a multi-channel module the DramSystem
 * owns one controller per channel and routes transactions; a
 * standalone controller over a single-channel config behaves as
 * before.
 */
class MemoryController : public MemoryService
{
  public:
    /**
     * Times a read-queue head may be bypassed by younger row-hit
     * reads before it is force-scheduled (the starvation bound real
     * FR-FCFS front-ends carry; reads stay live across REF storms
     * and row-hit bursts alike).
     */
    static constexpr int kReadStarvationLimit = 16;

    MemoryController(DramChannel &channel,
                     const ControllerConfig &config = {});

    // MemoryService transaction API.
    Ticket submit(const MemTransaction &txn) override;

    /**
     * submit() with `txn.addr` already decoded under the module map.
     * DramSystem routes by decoding once and hands the coordinates
     * down, so a transaction is decoded exactly once per submission.
     */
    Ticket submit(const MemTransaction &txn, const Address &addr);

    Cycle serve(const MemTransaction &txn) override;

    /**
     * serve() with `txn.addr` already decoded under the module map.
     * A write is accepted without a ticket record. A read or row op
     * that finds the read queue empty is issued at once - the queue
     * would pick it, since it is the only request - so neither takes
     * the ticket round trip. A read or row op behind queued requests
     * falls back to completionOf(submit(txn, addr)).
     */
    Cycle serve(const MemTransaction &txn, const Address &addr);
    Cycle acceptedAt(Ticket ticket) const override;
    Cycle completionOf(Ticket ticket) override;
    void retire(Ticket ticket) override;
    void onComplete(Ticket ticket, CompletionCallback fn) override;
    size_t poll(Cycle now) override;
    Cycle drainAll() override;
    size_t inFlightCount() const override
    {
        return read_q_.size() + pending_writes_.size();
    }

    /** The address map in use. */
    const AddressMap &map() const override { return map_; }

    /** Configuration of the module this controller serves. */
    const DramConfig &dramConfig() const override
    {
        return channel_.config();
    }

    /** Underlying channel (stats, config). */
    DramChannel &channel() { return channel_; }

    /** Writes accepted so far (for drain-invariant assertions). */
    uint64_t acceptedWrites() const { return accepted_writes_; }

    /** Writes buffered in the queue but not yet issued. */
    size_t pendingWriteCount() const
    {
        return pending_writes_.size();
    }

    /** Reads/row ops queued but not yet issued. */
    size_t pendingReadCount() const { return read_q_.size(); }

    /**
     * Refresh commands injected so far (auto_refresh accounting):
     * rank REFs in all-bank mode, REFpb commands in per-bank mode.
     */
    uint64_t refreshesIssued() const;

    /**
     * Tickets with live bookkeeping (submitted, neither resolved nor
     * retired). A fire-and-forget stream that retires its tickets
     * keeps this bounded by the in-flight count, not campaign length.
     */
    size_t trackedTicketCount() const { return records_.liveCount(); }

    /**
     * Record slots ever allocated (the arena's high-water mark): the
     * boundedness the retire() contract promises is that this stops
     * growing once the in-flight window reaches steady state.
     */
    size_t recordSlotCount() const { return records_.slotCount(); }

  private:
    /** A write accepted into the queue, awaiting its drain. */
    struct PendingWrite
    {
        Address addr;
        Ticket ticket;
        /** Acceptance cycle: the write cannot issue before it. */
        Cycle accepted = 0;
    };

    /** A read/row-op queued for issue, kept in arrival order. */
    struct QueuedRequest
    {
        MemTransaction txn;
        Ticket ticket;
        /** Decoded once at submit; the window scan compares it. */
        Address addr;
    };

    /** Resolution state of one ticket (released when resolved). */
    struct TxnRecord
    {
        TxnKind kind = TxnKind::Read;
        Cycle accepted = 0;
        Cycle completion = 0;
        bool completed = false;
    };

    /** Ensure `addr`'s row is open; returns cycle row is usable. */
    Cycle openRowFor(const Address &addr, Cycle now);

    /** Index into per-bank bookkeeping arrays. */
    size_t bankIndex(const Address &addr) const
    {
        return static_cast<size_t>(addr.rank) *
                   static_cast<size_t>(channel_.config().banks) +
               static_cast<size_t>(addr.bank);
    }

    /**
     * Move up to `limit` pending writes matching `row`'s
     * rank/bank/row into `out`, preserving acceptance order, with a
     * single compaction pass over the queue.
     */
    void takeRowMatchesInto(const Address &row, size_t limit,
                            std::vector<PendingWrite> &out);

    /**
     * Issue one same-row write batch back-to-back at row-ready,
     * recording completions. Returns the batch's completion cycle.
     */
    Cycle issueRowBatch(const std::vector<PendingWrite> &batch,
                        Cycle not_before);

    /**
     * Issue one row-hit batch of pending writes: the write at
     * queue index `head_idx` plus up to max_drain_batch-1 same-row
     * writes, back-to-back. Returns the batch's completion cycle.
     */
    Cycle drainBatchAt(size_t head_idx, Cycle not_before);

    /**
     * Drain row-hit batches until at most `target` writes pend: in
     * the whole queue (`bank` null; the oldest write anchors each
     * batch), or in `bank`'s rank/bank (its oldest write anchors).
     */
    Cycle drainPendingTo(size_t target, Cycle not_before,
                         const Address *bank = nullptr);

    /** Pending writes in the whole queue, or in `bank`'s bank. */
    size_t pendingIn(const Address *bank) const
    {
        return bank == nullptr ? pending_writes_.size()
                               : bank_pending_[bankIndex(*bank)];
    }

    /**
     * Issue every pending write to `addr`'s row (the write-forwarding
     * surrogate: a read or destructive row op must observe writes
     * accepted before it).
     */
    void flushRow(const Address &addr, Cycle not_before);

    /**
     * Accept one write; returns the acceptance cycle. `ticket` is
     * kInvalidTicket for a serve()d write, which keeps no record.
     */
    Cycle acceptWrite(const Address &addr, Cycle now, Ticket ticket);

    /**
     * Index into read_q_ of the next request to issue: the head, or
     * a row-hit read within the policy window whose arrival is
     * within `arrival_bound` (see class comment).
     */
    size_t pickRequestIndex(Cycle arrival_bound) const;

    /**
     * Issue the picked queued request, bounding row-hit bypass to
     * requests arrived by `arrival_bound`; record its completion.
     */
    Cycle serviceOneRequest(Cycle arrival_bound);

    /**
     * serviceOneRequest() at the default scheduling horizon:
     * everything arrived by the time the channel could service the
     * queue head (max of head arrival and last issue cycle).
     */
    Cycle serviceNextRequest();

    /**
     * Issue the read/row-op command sequence of one transaction.
     * `addr` is the transaction's address, decoded once at submit and
     * carried in the queue entry (row ops rebase it to column 0).
     */
    Cycle issueRead(const MemTransaction &txn, const Address &addr);
    Cycle issueRowOp(const MemTransaction &txn, Address addr);

    /**
     * Issue `rank`'s refreshes due by cycle `t` beyond the
     * postponement allowance (no-op unless auto_refresh), on the
     * all-bank or per-bank cadence (dram/refresh.h).
     */
    void catchUpRefresh(int rank, Cycle t);

    /**
     * True if an urgent read (priority < 0) has arrived by `bound`
     * within the read window (up to the row-op barrier).
     */
    bool hasArrivedUrgentRead(Cycle bound) const;

    /**
     * Service arrived urgent reads ahead of further write draining
     * (no-op unless priority_sched). Called between drain batches so
     * an authenticate-class read never waits out a whole drain
     * episode behind background writes.
     */
    void serviceUrgentReads(Cycle not_before);

    /** Record a ticket's completion if it is still tracked. */
    void markCompleted(Ticket ticket, Cycle completion);

    /** Fire and release a registered callback (see onComplete()). */
    void fireCallback(Ticket ticket, Cycle completion);

    DramChannel &channel_;
    ControllerConfig config_;
    AddressMap map_;
    int codic_det_variant_;
    SchedulerPolicy sched_;
    /** REF or REFpb cadence of every rank (see catchUpRefresh()). */
    RefreshCadence refresh_;
    /**
     * Accepted but not yet issued writes (FIFO acceptance order).
     * Bounded by write_queue_entries, reserved up front: insert/erase
     * are short memmoves over contiguous storage, never allocations.
     */
    std::vector<PendingWrite> pending_writes_;
    /** Completion cycles of issued in-flight writes (nondecreasing). */
    RingBuffer<Cycle> write_completions_;
    /**
     * Queued reads/row ops, sorted by arrival with submission order
     * breaking ties. Bounded by read_queue_entries and reserved up
     * front, like pending_writes_.
     */
    std::vector<QueuedRequest> read_q_;
    /**
     * Resolution state per live ticket: a ticket IS the arena handle
     * (generation-tagged slot), so submit/resolve/retire recycle
     * slots through the free list instead of churning map nodes.
     */
    SlotArena<TxnRecord> records_;
    /** Refresh commands injected per rank (REF or REFpb cadence). */
    std::vector<int64_t> refs_issued_;
    /** Pending (unissued) writes per bank, indexed by bankIndex(). */
    std::vector<uint32_t> bank_pending_;
    /**
     * Scratch batch for drain/flush assembly. Safe to share: batch
     * assembly and issueRowBatch() never re-enter a drain or flush.
     */
    std::vector<PendingWrite> batch_scratch_;
    /**
     * Completion callbacks by ticket (co-sim consumers only). A side
     * map rather than a TxnRecord field so the blocking hot path
     * pays exactly one empty() branch per completion when no
     * callback was ever registered.
     */
    std::unordered_map<Ticket, CompletionCallback> callbacks_;
    uint64_t accepted_writes_ = 0;
    /** Consecutive window bypasses of the current queue head. */
    int head_bypasses_ = 0;
#ifndef NDEBUG
    /** Re-entrancy guard: true while a callback is running. */
    bool in_callback_ = false;
#endif
};

} // namespace codic

#endif // CODIC_MEM_CONTROLLER_H
