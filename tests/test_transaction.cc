/**
 * @file
 * Tests of the transaction-based MemoryService API: ticket
 * lifecycle, the bounded read queue with its read-reordering
 * window, refresh-aware scheduling invariants, the per-bank drain
 * watermarks, and the new SchedulerPolicy /
 * DramConfig validation and --sched spec parsing.
 */

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "dram/system.h"
#include "mem/controller.h"
#include "scenario/scheduler_workloads.h"

namespace codic {
namespace {

DramConfig
cfg()
{
    return DramConfig::ddr3_1600(256);
}

// --- Ticket lifecycle. ---

TEST(Transaction, BlockingShimEqualsExplicitSubmitResolve)
{
    DramChannel ch_a(cfg()), ch_b(cfg());
    MemoryController shim(ch_a), async(ch_b);

    const Cycle blocking = shim.read(64, 10);
    const Ticket t =
        async.submit(MemTransaction::makeRead(64, 10));
    EXPECT_EQ(async.acceptedAt(t), 10);
    EXPECT_EQ(async.completionOf(t), blocking);
    EXPECT_EQ(ch_a.counts().total(), ch_b.counts().total());
}

void
expectSameCounts(const CommandCounts &a, const CommandCounts &b)
{
    EXPECT_EQ(a.act, b.act);
    EXPECT_EQ(a.pre, b.pre);
    EXPECT_EQ(a.rd, b.rd);
    EXPECT_EQ(a.wr, b.wr);
    EXPECT_EQ(a.ref, b.ref);
    EXPECT_EQ(a.refpb, b.refpb);
    EXPECT_EQ(a.mrs, b.mrs);
    EXPECT_EQ(a.codic, b.codic);
    EXPECT_EQ(a.rowclone, b.rowclone);
    EXPECT_EQ(a.lisa_rbm, b.lisa_rbm);
    EXPECT_EQ(a.rd_wr_turnarounds, b.rd_wr_turnarounds);
    EXPECT_EQ(a.wr_rd_turnarounds, b.wr_rd_turnarounds);
    EXPECT_EQ(a.refresh_overlap_cycles, b.refresh_overlap_cycles);
    ASSERT_EQ(a.per_bank.size(), b.per_bank.size());
    for (size_t i = 0; i < a.per_bank.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(a.per_bank[i].act, b.per_bank[i].act);
        EXPECT_EQ(a.per_bank[i].rd, b.per_bank[i].rd);
        EXPECT_EQ(a.per_bank[i].wr, b.per_bank[i].wr);
        EXPECT_EQ(a.per_bank[i].ref, b.per_bank[i].ref);
        EXPECT_EQ(a.per_bank[i].refpb, b.per_bank[i].refpb);
        EXPECT_EQ(a.per_bank[i].refresh_cycles,
                  b.per_bank[i].refresh_cycles);
    }
}

// serve() skips the ticket round trip (a write takes no record; a
// read or row op on an empty read queue issues at once). Two
// identical systems fed the same stream - one through serve(), one
// through submit + completionOf (a write: acceptedAt + retire) -
// must agree on every cycle and counter. An occasional async submit
// is left queued on both, so serve() also takes its fallback.
TEST(Transaction, ServeMatchesSubmitResolve)
{
    size_t direct = 0;
    size_t fallback = 0;
    uint64_t seed = 0;
    for (const char *grade : {"ddr3-1600", "ddr4-3200"}) {
        for (int channels : {1, 2, 4}) {
            for (const char *spec :
                 {"eager", "batched", "aggressive", "serving",
                  "serving:refresh=per-bank"}) {
                SCOPED_TRACE(std::string(grade) + " x" +
                             std::to_string(channels) + " " + spec);
                DramConfig c = DramConfig::preset(grade, 256, channels);
                c.scheduler = SchedulerPolicy::parse(spec);
                ControllerConfig cc;
                cc.map_scheme = MapScheme::RowBankColumnChannel;
                DramSystem served(c, cc), resolved(c, cc);
                Rng rng(++seed);
                std::vector<Ticket> queued_s, queued_r;
                // A few hot rows per bank (row hits, same-row write
                // forwarding) inside a wider random spread.
                const uint64_t span =
                    static_cast<uint64_t>(c.row_bytes) * 64 * channels;
                Cycle now = 0;
                for (int i = 0; i < 3000; ++i) {
                    now += static_cast<Cycle>(rng.next64() % 48);
                    const uint64_t addr =
                        (rng.next64() % 4 == 0
                             ? rng.next64() %
                                   static_cast<uint64_t>(
                                       c.capacityBytes())
                             : rng.next64() % span) &
                        ~uint64_t{63};
                    const int priority =
                        rng.next64() % 8 == 0 ? -1 : 0;
                    const uint64_t pick = rng.next64() % 20;
                    MemTransaction txn;
                    if (pick < 9) {
                        txn = MemTransaction::makeRead(addr, now, i,
                                                       priority);
                    } else if (pick < 16) {
                        txn = MemTransaction::makeWrite(addr, now, i);
                    } else if (pick < 19) {
                        txn = MemTransaction::makeRowOp(
                            addr, now,
                            static_cast<RowOpMechanism>(pick - 16), 1,
                            i, priority);
                    } else {
                        // Async read left queued on both systems.
                        txn = MemTransaction::makeRead(addr, now, i,
                                                       priority);
                        queued_s.push_back(served.submit(txn));
                        queued_r.push_back(resolved.submit(txn));
                        if (queued_s.size() > 4) {
                            for (size_t q = 0; q < queued_s.size(); ++q)
                                EXPECT_EQ(
                                    served.completionOf(queued_s[q]),
                                    resolved.completionOf(queued_r[q]));
                            queued_s.clear();
                            queued_r.clear();
                        }
                        continue;
                    }
                    if (txn.kind != TxnKind::Write) {
                        const int ch = served.channelOf(addr);
                        if (served.controller(ch).pendingReadCount() ==
                            0)
                            ++direct;
                        else
                            ++fallback;
                    }
                    const Cycle got = served.serve(txn);
                    const Ticket t = resolved.submit(txn);
                    Cycle want;
                    if (txn.kind == TxnKind::Write) {
                        want = resolved.acceptedAt(t);
                        resolved.retire(t);
                    } else {
                        want = resolved.completionOf(t);
                    }
                    ASSERT_EQ(got, want) << "transaction " << i;
                }
                for (size_t q = 0; q < queued_s.size(); ++q)
                    EXPECT_EQ(served.completionOf(queued_s[q]),
                              resolved.completionOf(queued_r[q]));
                EXPECT_EQ(served.lastIssueCycle(),
                          resolved.lastIssueCycle());
                EXPECT_EQ(served.drainAll(), resolved.drainAll());
                expectSameCounts(served.totalCounts(),
                                 resolved.totalCounts());
            }
        }
    }
    // Both branches of serve() ran.
    EXPECT_GT(direct, 1000u);
    EXPECT_GT(fallback, 100u);
}

TEST(Transaction, TicketsResolveOnceThenPanic)
{
    DramChannel ch(cfg());
    MemoryController mc(ch);
    const Ticket t = mc.submit(MemTransaction::makeRead(0, 0));
    mc.completionOf(t);
    EXPECT_THROW(mc.completionOf(t), PanicError);
    EXPECT_THROW(mc.acceptedAt(t), PanicError);
    EXPECT_THROW(mc.completionOf(Ticket{987654}), PanicError);
}

TEST(Transaction, RetiredWritebackStillDrains)
{
    DramConfig c = cfg();
    c.scheduler = SchedulerPolicy::preset("batched");
    DramChannel ch(c);
    MemoryController mc(ch);
    const Ticket t = mc.submit(MemTransaction::makeWrite(0, 5));
    EXPECT_EQ(mc.acceptedAt(t), 5);
    mc.retire(t); // Fire-and-forget: completion never queried.
    EXPECT_EQ(mc.pendingWriteCount(), 1u);
    mc.drainAll();
    EXPECT_EQ(mc.pendingWriteCount(), 0u);
    EXPECT_EQ(ch.counts().wr, 1u);
}

TEST(Transaction, MillionRetiredWritebacksStayBounded)
{
    // Fire-and-forget writeback streams retire() every ticket
    // without resolving it; the record arena must recycle slots
    // instead of growing with the stream. 10^6 writes is ~4 orders
    // of magnitude beyond the queue depth, so any per-transaction
    // leak shows up as an unbounded slot count.
    DramConfig c = cfg();
    c.scheduler = SchedulerPolicy::preset("batched");
    DramChannel ch(c);
    MemoryController mc(ch);
    const int64_t row_bytes = c.row_bytes;
    size_t max_tracked = 0;
    for (int64_t i = 0; i < 1000000; ++i) {
        const Ticket t = mc.submit(MemTransaction::makeWrite(
            static_cast<uint64_t>((i % 1024) * row_bytes), i));
        mc.retire(t);
        max_tracked = std::max(max_tracked, mc.trackedTicketCount());
    }
    mc.drainAll();
    EXPECT_EQ(mc.trackedTicketCount(), 0u);
    EXPECT_EQ(mc.pendingWriteCount(), 0u);
    // A retired ticket's record dies at retire(), so at most one
    // record is ever live, and the arena never grows past its first
    // slot - bounded by the queue scale, not the stream length.
    EXPECT_LE(max_tracked, 1u);
    EXPECT_LE(mc.recordSlotCount(), 64u);
    EXPECT_EQ(ch.counts().wr, 1000000u);
}

TEST(Transaction, WriteTicketCompletionForcesItsDrain)
{
    DramConfig c = cfg();
    c.scheduler = SchedulerPolicy::preset("batched");
    DramChannel ch(c);
    MemoryController mc(ch);
    const Ticket t = mc.submit(MemTransaction::makeWrite(0, 0));
    ASSERT_EQ(mc.pendingWriteCount(), 1u); // Buffered, not issued.
    const Cycle done = mc.completionOf(t);
    EXPECT_GT(done, 0);
    EXPECT_EQ(mc.pendingWriteCount(), 0u);
    EXPECT_EQ(ch.counts().wr, 1u);
}

TEST(Transaction, EagerWriteTicketResolvesAfterImmediateDrain)
{
    // Regression: under the eager policy a write drains during its
    // own acceptance; the completion must land in the ticket record
    // (created before acceptance), not vanish.
    DramChannel ch(cfg()); // Eager default: drain at acceptance.
    MemoryController mc(ch);
    const Ticket t = mc.submit(MemTransaction::makeWrite(0, 7));
    EXPECT_EQ(mc.acceptedAt(t), 7);
    EXPECT_EQ(ch.counts().wr, 1u); // Already issued.
    EXPECT_GT(mc.completionOf(t), 7);
}

TEST(Transaction, PollNeverIssuesFutureRowHits)
{
    // Regression: a row-hit read far in the future must not bypass
    // into a poll - issuing it would drag the channel's monotone
    // bus horizons to its arrival cycle and penalize every
    // already-arrived read behind it.
    DramConfig c = cfg();
    c.scheduler = SchedulerPolicy::preset("batched"); // window 8.
    DramChannel ch(c);
    MemoryController mc(ch);
    mc.read(0, 0); // Open row 0 of bank 0.
    const uint64_t conflict =
        static_cast<uint64_t>(c.row_bytes) *
        static_cast<uint64_t>(c.banks) * 3; // Row 3, bank 0.
    const Ticket miss =
        mc.submit(MemTransaction::makeRead(conflict, 10));
    // Row hit to the open row, but it has not arrived yet.
    const Ticket future =
        mc.submit(MemTransaction::makeRead(64, 1000000));
    EXPECT_EQ(mc.poll(100), 1u);
    const Cycle miss_done = mc.completionOf(miss);
    EXPECT_LT(miss_done, 1000000);
    EXPECT_GE(mc.completionOf(future), 1000000);
}

TEST(Transaction, WriteResolutionKeepsEarlierReadsPrioritized)
{
    // completionOf on a buffered write must first service reads the
    // schedule orders before it (arrived by its acceptance), so
    // resolving the write out of order cannot steal the data bus
    // from an earlier read.
    DramConfig c = cfg();
    c.scheduler = SchedulerPolicy::preset("batched");
    DramChannel ch(c);
    MemoryController mc(ch);
    const Ticket rd = mc.submit(MemTransaction::makeRead(0, 10));
    const Ticket wr =
        mc.submit(MemTransaction::makeWrite(1 << 20, 20));
    const Cycle wr_done = mc.completionOf(wr);
    EXPECT_EQ(ch.counts().rd, 1u); // The read issued first.
    EXPECT_LT(mc.completionOf(rd), wr_done);
}

TEST(Transaction, PollServicesOnlyArrivedRequests)
{
    DramChannel ch(cfg());
    MemoryController mc(ch);
    const Ticket early =
        mc.submit(MemTransaction::makeRead(0, 0));
    mc.submit(MemTransaction::makeRead(1 << 20, 100000));
    EXPECT_EQ(mc.pendingReadCount(), 2u);
    EXPECT_EQ(mc.poll(500), 1u);
    EXPECT_EQ(mc.pendingReadCount(), 1u);
    EXPECT_EQ(ch.counts().rd, 1u);
    // The serviced ticket resolved without further issue.
    EXPECT_GT(mc.completionOf(early), 0);
}

TEST(Transaction, SystemTicketsRouteAcrossChannels)
{
    ControllerConfig cc;
    cc.map_scheme = MapScheme::RowBankColumnChannel;
    DramSystem sys(DramConfig::ddr3_1600(256, 2), cc);
    ASSERT_EQ(sys.channelOf(0), 0);
    ASSERT_EQ(sys.channelOf(64), 1);
    const Ticket t0 = sys.submit(MemTransaction::makeRead(0, 0));
    const Ticket t1 = sys.submit(MemTransaction::makeRead(64, 0));
    EXPECT_NE(t0, t1);
    EXPECT_EQ(sys.inFlightCount(), 2u);
    EXPECT_EQ(sys.acceptedAt(t1), 0);
    // Resolve in reverse submission order: each channel only
    // services its own queue.
    EXPECT_GT(sys.completionOf(t1), 0);
    EXPECT_GT(sys.completionOf(t0), 0);
    EXPECT_EQ(sys.channel(0).counts().rd, 1u);
    EXPECT_EQ(sys.channel(1).counts().rd, 1u);
}

// --- Read-reordering window. ---

TEST(Transaction, ReadWindowCoalescesRowConflictStream)
{
    auto run = [](int window, std::vector<Cycle> *lat) {
        DramConfig c = cfg();
        c.scheduler = SchedulerPolicy::preset("batched");
        c.scheduler.read_window = window;
        DramSystem sys(c);
        runReadWindowWorkload(sys, 20, 16, lat);
        return sys.totalCounts();
    };
    std::vector<Cycle> lat1, lat8;
    const CommandCounts fifo = run(1, &lat1);
    const CommandCounts windowed = run(8, &lat8);
    EXPECT_EQ(fifo.rd, windowed.rd);
    // Strict arrival order pays a PRE/ACT pair per row-alternating
    // read; the window regroups each wave into two row-hit runs.
    EXPECT_LT(windowed.act * 4, fifo.act);
    double mean1 = 0, mean8 = 0;
    for (Cycle l : lat1)
        mean1 += static_cast<double>(l);
    for (Cycle l : lat8)
        mean8 += static_cast<double>(l);
    EXPECT_LT(mean8, mean1);
}

TEST(Transaction, WindowNeverReordersAcrossRowOpOrSameRow)
{
    DramConfig c = cfg();
    c.scheduler = SchedulerPolicy::preset("batched"); // window 8.
    DramSystem sys(c);
    const Address target = sys.map().decode(0);
    sys.channel(0).setRowState(target.rank, target.bank, target.row,
                               RowDataState::Data);
    // Same row: read, destructive row op, read - all queued at once.
    const Ticket r1 = sys.submit(MemTransaction::makeRead(0, 0));
    const Ticket op = sys.submit(MemTransaction::makeRowOp(
        0, 0, RowOpMechanism::CodicDet));
    const Ticket r2 = sys.submit(MemTransaction::makeRead(64, 0));
    const Cycle c1 = sys.completionOf(r1);
    const Cycle cop = sys.completionOf(op);
    const Cycle c2 = sys.completionOf(r2);
    EXPECT_LT(c1, cop);
    EXPECT_LT(cop, c2);
    EXPECT_EQ(sys.channel(0).rowState(target.rank, target.bank,
                                      target.row),
              RowDataState::Zeroes);
}

// --- Refresh-aware scheduling. ---

TEST(Transaction, RefreshCountTracksElapsedWithinPostponement)
{
    for (const int postpone : {0, 4, 8}) {
        DramConfig c = cfg();
        c.scheduler = SchedulerPolicy::preset("batched");
        c.scheduler.auto_refresh = true;
        c.scheduler.refresh_postpone = postpone;
        DramSystem sys(c);
        const Cycle done = runRefreshReadWorkload(
            sys, 4, 1200, 8, 3 * c.timing.trefi);
        sys.poll(done);
        const int64_t intervals = done / c.timing.trefi;
        const int64_t refs =
            static_cast<int64_t>(sys.totalCounts().ref);
        // REF count ~ elapsed/tREFI: every due REF beyond the
        // postponement allowance must have issued, and never more
        // than the due count.
        EXPECT_GE(refs, intervals - postpone - 1) << postpone;
        EXPECT_LE(refs, intervals + 1) << postpone;
    }
}

TEST(Transaction, ReadsNeverStarveAcrossRefreshStorm)
{
    // A saturated read stream spanning many tREFI with the maximum
    // deferral allowance: REFs are forced mid-stream in bursts, yet
    // every read must complete with bounded latency.
    DramConfig c = cfg();
    c.scheduler = SchedulerPolicy::preset("batched");
    c.scheduler.auto_refresh = true;
    c.scheduler.refresh_postpone = 8;
    DramSystem sys(c);
    std::vector<Cycle> lat;
    runRefreshReadWorkload(sys, 1, 20000, 6, 0, &lat);
    ASSERT_EQ(lat.size(), 20000u);
    EXPECT_GT(sys.totalCounts().ref, 10u);
    const Cycle bound = 16 * c.timing.trfc;
    for (const Cycle l : lat)
        ASSERT_LT(l, bound);
}

TEST(Transaction, PostponementMovesRefreshOutOfBursts)
{
    auto tail = [](int postpone) {
        DramConfig c = cfg();
        c.scheduler = SchedulerPolicy::preset("batched");
        c.scheduler.auto_refresh = true;
        c.scheduler.refresh_postpone = postpone;
        DramSystem sys(c);
        std::vector<Cycle> lat;
        runRefreshReadWorkload(sys, 6, 2000, 8,
                               4 * c.timing.trefi, &lat);
        return *std::max_element(lat.begin(), lat.end());
    };
    // With bursts ~2.5 tREFI long, a sufficient allowance slides
    // every mid-burst REF into the following quiet gap.
    EXPECT_LT(tail(8), tail(0));
}

TEST(Transaction, EagerPresetNeverInjectsRefresh)
{
    DramSystem sys(cfg()); // Eager default: auto_refresh off.
    runRefreshReadWorkload(sys, 2, 2000, 8, 6240);
    sys.drainAll();
    EXPECT_EQ(sys.totalCounts().ref, 0u);
}

// --- Per-bank drain watermarks. ---

TEST(Transaction, BankWatermarkDrainsBankHotStream)
{
    DramConfig c = cfg();
    c.scheduler = SchedulerPolicy::preset("batched");
    c.scheduler.drain_high_pct = 100; // Park the global watermark.
    c.scheduler.bank_drain_high = 4;
    c.scheduler.bank_drain_low = 1;
    DramChannel ch(c);
    MemoryController mc(ch);
    // Row-conflicting writes all landing on bank 0.
    const uint64_t stride = 8192ull * 8ull;
    for (int i = 0; i < 3; ++i)
        mc.write(stride * static_cast<uint64_t>(i), 0);
    EXPECT_EQ(mc.pendingWriteCount(), 3u); // Below the watermark.
    mc.write(stride * 3, 0);
    // The 4th write tripped the bank watermark: drained to low = 1.
    EXPECT_EQ(mc.pendingWriteCount(), 1u);
    EXPECT_EQ(ch.counts().wr, 3u);
    mc.drainAll();
    EXPECT_EQ(ch.counts().wr, mc.acceptedWrites());
}

// --- Validation and --sched spec parsing. ---

TEST(Transaction, ValidateRejectsNewInconsistentKnobs)
{
    SchedulerPolicy p;
    p.read_window = 0;
    EXPECT_THROW(p.validate(), FatalError);
    p = SchedulerPolicy{};
    p.bank_drain_high = 2;
    p.bank_drain_low = 3; // Low watermark exceeds high.
    EXPECT_THROW(p.validate(), FatalError);
    p = SchedulerPolicy{};
    p.bank_drain_high = -1;
    EXPECT_THROW(p.validate(), FatalError);
    p = SchedulerPolicy{};
    p.refresh_postpone = 9; // Beyond the JEDEC limit.
    EXPECT_THROW(p.validate(), FatalError);
    p = SchedulerPolicy{};
    p.refresh_postpone = -1;
    EXPECT_THROW(p.validate(), FatalError);
}

TEST(Transaction, DramConfigRejectsNonPositiveRefreshTimings)
{
    DramConfig c = cfg();
    c.timing.trefi = 0;
    EXPECT_THROW(c.validate(), FatalError);
    c = cfg();
    c.timing.trefi = -8;
    EXPECT_THROW(c.validate(), FatalError);
    c = cfg();
    c.timing.trfc = 0;
    EXPECT_THROW(c.validate(), FatalError);
    c = cfg();
    c.timing.trfc = -1;
    EXPECT_THROW(c.validate(), FatalError);
}

TEST(Transaction, SchedSpecParsesPresetAndKnobOverrides)
{
    const SchedulerPolicy p = SchedulerPolicy::parse(
        "batched:read_window=16,refresh=auto,refresh_postpone=4,"
        "bank_drain_high=6,bank_drain_low=2");
    EXPECT_EQ(p.drain_high_pct, 75); // From the preset.
    EXPECT_EQ(p.read_window, 16);
    EXPECT_TRUE(p.auto_refresh);
    EXPECT_EQ(p.refresh_postpone, 4);
    EXPECT_EQ(p.bank_drain_high, 6);
    EXPECT_EQ(p.bank_drain_low, 2);

    EXPECT_FALSE(SchedulerPolicy::parse("batched").auto_refresh);
    EXPECT_FALSE(
        SchedulerPolicy::parse("eager:refresh=off").auto_refresh);

    EXPECT_THROW(SchedulerPolicy::parse("bogus"), FatalError);
    EXPECT_THROW(SchedulerPolicy::parse("batched:no_such_knob=1"),
                 FatalError);
    EXPECT_THROW(SchedulerPolicy::parse("batched:read_window=abc"),
                 FatalError);
    // Overflowing values must fail loudly, not wrap into a
    // different, valid-looking policy.
    EXPECT_THROW(
        SchedulerPolicy::parse("batched:read_window=4294967297"),
        FatalError);
    EXPECT_THROW(SchedulerPolicy::parse("batched:read_window="),
                 FatalError);
    EXPECT_THROW(SchedulerPolicy::parse("batched:refresh=maybe"),
                 FatalError);
    // Overrides that assemble an inconsistent policy are rejected
    // by the embedded validate().
    EXPECT_THROW(SchedulerPolicy::parse(
                     "batched:bank_drain_high=2,bank_drain_low=5"),
                 FatalError);
    // The knob help text names every parseable knob.
    const std::string help = SchedulerPolicy::describeKnobs();
    for (const char *knob :
         {"drain_high_pct", "drain_low_pct", "max_drain_batch",
          "replay_batch", "read_window", "bank_drain_high",
          "bank_drain_low", "refresh", "refresh_postpone",
          "priority", "per-bank", "serving"})
        EXPECT_NE(help.find(knob), std::string::npos) << knob;
}

// --- QoS: priority scheduling, REFpb. ---

TEST(Transaction, ServingPresetAndQosSpecParsing)
{
    const SchedulerPolicy s = SchedulerPolicy::preset("serving");
    EXPECT_EQ(s.drain_high_pct, 85);
    EXPECT_EQ(s.drain_low_pct, 35);
    EXPECT_EQ(s.read_window, 16);
    EXPECT_EQ(s.bank_drain_high, 8);
    EXPECT_EQ(s.bank_drain_low, 2);
    EXPECT_TRUE(s.auto_refresh);
    EXPECT_EQ(s.refresh_postpone, 4);
    EXPECT_TRUE(s.priority_sched);
    EXPECT_FALSE(s.per_bank_refresh);

    const SchedulerPolicy pb =
        SchedulerPolicy::parse("serving:refresh=per-bank");
    EXPECT_TRUE(pb.per_bank_refresh);
    EXPECT_TRUE(pb.auto_refresh); // per-bank implies the engine on.
    EXPECT_TRUE(
        SchedulerPolicy::parse("batched:priority=on").priority_sched);
    EXPECT_FALSE(
        SchedulerPolicy::parse("serving:priority=off").priority_sched);
    EXPECT_FALSE(
        SchedulerPolicy::parse("serving:refresh=off").auto_refresh);
    EXPECT_FALSE(SchedulerPolicy::parse("serving:refresh=off")
                     .per_bank_refresh);

    EXPECT_THROW(SchedulerPolicy::parse("serving:priority=maybe"),
                 FatalError);
    EXPECT_THROW(SchedulerPolicy::parse("serving:refresh=bank"),
                 FatalError);
    // per_bank_refresh without the refresh engine is inconsistent.
    SchedulerPolicy p;
    p.per_bank_refresh = true;
    p.auto_refresh = false;
    EXPECT_THROW(p.validate(), FatalError);
}

TEST(Transaction, DramConfigRejectsBadPerBankRefreshTimings)
{
    DramConfig c = cfg();
    c.timing.trfcpb = 0;
    EXPECT_THROW(c.validate(), FatalError);
    c = cfg();
    c.timing.trfcpb = c.timing.trfc + 1; // REFpb beyond all-bank REF.
    EXPECT_THROW(c.validate(), FatalError);
    // The sized module derives tRFCpb ~ tRFC / 2.
    c = cfg();
    EXPECT_GT(c.timing.trfcpb, 0);
    EXPECT_LE(c.timing.trfcpb, c.timing.trfc);
}

TEST(Transaction, PrioritySchedulingImprovesUrgentTailLatency)
{
    // The same storm, priority-blind vs the serving preset (the
    // blind baseline matches serving's refresh settings so the delta
    // isolates priority scheduling). The urgent read of each wave is
    // submitted last at the same arrival cycle, so only priority
    // selection and drain jumping can move it ahead.
    const auto urgentP99 = [](const char *spec) {
        DramConfig c = cfg();
        c.scheduler = SchedulerPolicy::parse(spec);
        DramSystem sys(c);
        std::vector<Cycle> urgent;
        runPriorityStormWorkload(sys, 40, 48, 12, &urgent, nullptr);
        std::sort(urgent.begin(), urgent.end());
        return urgent[urgent.size() * 99 / 100];
    };
    const Cycle blind =
        urgentP99("batched:refresh=auto,refresh_postpone=4");
    const Cycle serving = urgentP99("serving");
    // The CI bench gate demands >= 20%; the controller-level
    // improvement is far larger - assert a conservative >= 50%.
    EXPECT_LE(serving * 2, blind);
}

TEST(Transaction, AgingPromotionBoundsBestEffortStarvation)
{
    // One best-effort read at the queue head against a stream of
    // urgent reads at the same arrival: priority scheduling bypasses
    // the head exactly kReadStarvationLimit times, then the aging
    // rule force-schedules it.
    DramConfig c = cfg();
    c.scheduler = SchedulerPolicy::parse("serving:read_window=48");
    DramChannel ch(c);
    MemoryController mc(ch);
    const int64_t row_bytes = c.row_bytes;
    const auto addrOf = [&](int64_t row, int64_t bank) {
        return static_cast<uint64_t>((row * c.banks + bank) *
                                     row_bytes);
    };
    const Ticket bg = mc.submit(
        MemTransaction::makeRead(addrOf(0, 0), 0, 0, 0));
    std::vector<Ticket> urgent;
    for (int i = 0; i < 40; ++i)
        urgent.push_back(mc.submit(MemTransaction::makeRead(
            addrOf(1 + i, 1 + i % 7), 0, 1, -1)));
    std::vector<Cycle> urgent_done;
    for (const Ticket t : urgent)
        urgent_done.push_back(mc.completionOf(t));
    const Cycle bg_done = mc.completionOf(bg);
    int bypassed = 0;
    for (const Cycle d : urgent_done)
        bypassed += d < bg_done;
    EXPECT_EQ(bypassed, MemoryController::kReadStarvationLimit);
}

TEST(Transaction, PriorityStormTalliesMatchChannelTotals)
{
    DramConfig c = cfg();
    c.scheduler = SchedulerPolicy::preset("serving");
    DramSystem sys(c);
    std::vector<Cycle> urgent;
    runPriorityStormWorkload(sys, 20, 48, 12, &urgent, nullptr);
    const CommandCounts counts = sys.totalCounts();
    // Every read issues exactly one RD burst and every write one WR
    // burst (all drained by the workload), so the storm's own tallies
    // must match the channel command totals.
    ASSERT_EQ(urgent.size(), 20u); // One urgent read per wave.
    EXPECT_EQ(counts.rd, 20u * 13u); // 12 background + 1 urgent.
    EXPECT_EQ(counts.wr, 20u * 48u);
    uint64_t urgent_sum = 0;
    for (const Cycle l : urgent)
        urgent_sum += static_cast<uint64_t>(l);
    EXPECT_GT(urgent_sum, 0u);
}

TEST(Transaction, PerBankRefreshTracksTrefipbPerBank)
{
    DramConfig c = cfg();
    c.scheduler = SchedulerPolicy::parse("batched:refresh=per-bank");
    DramSystem sys(c);
    const Cycle done = runRefreshReadWorkload(sys, 4, 1200, 8,
                                              3 * c.timing.trefi);
    sys.poll(done);
    const CommandCounts counts = sys.totalCounts();
    const Cycle trefipb = c.timing.trefi / c.banks;
    const int64_t due = static_cast<int64_t>(done / trefipb);
    const int64_t refpb = static_cast<int64_t>(counts.refpb);
    // Per-bank mode issues REFpb only, at ~ elapsed / tREFIpb. The
    // lazy catch-up trails the final completion by up to one tREFI,
    // which is `banks` tREFIpb intervals.
    EXPECT_EQ(counts.ref, 0u);
    EXPECT_GE(refpb, due - c.banks - 1);
    EXPECT_LE(refpb, due + 1);
    // Round-robin rotation: every bank refreshed ~ elapsed / tREFI,
    // spread within one command of its siblings, with tRFCpb cycles
    // of lockout accounted per REFpb.
    const std::vector<BankCounts> banks = sys.perBankCounts();
    uint64_t min_refpb = ~0ull;
    uint64_t max_refpb = 0;
    for (const BankCounts &b : banks) {
        min_refpb = std::min(min_refpb, b.refpb);
        max_refpb = std::max(max_refpb, b.refpb);
        EXPECT_EQ(b.refresh_cycles,
                  b.refpb * static_cast<uint64_t>(c.timing.trfcpb));
    }
    EXPECT_LE(max_refpb - min_refpb, 1u);
    const int64_t per_bank_due =
        static_cast<int64_t>(done / c.timing.trefi);
    EXPECT_GE(static_cast<int64_t>(min_refpb), per_bank_due - 2);
    EXPECT_LE(static_cast<int64_t>(max_refpb), per_bank_due + 1);
}

TEST(Transaction, RefreshOverlapOnlyAccruesInPerBankMode)
{
    const auto run = [](const char *spec) {
        DramConfig c = cfg();
        c.scheduler = SchedulerPolicy::parse(spec);
        DramSystem sys(c);
        std::vector<Cycle> urgent;
        runPriorityStormWorkload(sys, 30, 48, 12, &urgent, nullptr);
        return sys.totalCounts();
    };
    // All-bank REF requires the whole rank idle: overlap impossible.
    EXPECT_EQ(run("serving").refresh_overlap_cycles, 0u);
    // REFpb refreshes one bank while siblings stay open.
    EXPECT_GT(run("serving:refresh=per-bank").refresh_overlap_cycles,
              0u);
}

// --- Refresh cadence pin (values captured before the all-bank and
// per-bank cadences shared one implementation). ---

/** Observables of one refresh run, compared field by field. */
struct RefreshPin
{
    uint64_t ref;
    uint64_t refpb;
    uint64_t overlap;
    uint64_t bank_hash;    //!< FNV-1a over each bank's ref/refpb/cycles.
    Cycle last_issue;
    uint64_t latency_hash; //!< FNV-1a over the read latencies.
};

uint64_t
fnv1a(uint64_t h, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

RefreshPin
runRefreshPin(const DramConfig &grade, const char *spec, bool storm)
{
    DramConfig c = grade;
    c.scheduler = SchedulerPolicy::parse(spec);
    DramSystem sys(c);
    std::vector<Cycle> lat;
    if (storm) {
        runPriorityStormWorkload(sys, 30, 48, 12, &lat, &lat);
    } else {
        const Cycle done = runRefreshReadWorkload(
            sys, 3, 16000, 8, 3 * c.timing.trefi, &lat);
        sys.poll(done);
    }
    const CommandCounts counts = sys.totalCounts();
    RefreshPin pin{counts.ref, counts.refpb,
                   counts.refresh_overlap_cycles, 0xcbf29ce484222325ull,
                   sys.lastIssueCycle(), 0xcbf29ce484222325ull};
    for (const BankCounts &b : sys.perBankCounts()) {
        pin.bank_hash = fnv1a(pin.bank_hash, b.ref);
        pin.bank_hash = fnv1a(pin.bank_hash, b.refpb);
        pin.bank_hash = fnv1a(pin.bank_hash, b.refresh_cycles);
    }
    for (const Cycle l : lat)
        pin.latency_hash =
            fnv1a(pin.latency_hash, static_cast<uint64_t>(l));
    return pin;
}

TEST(Refresh, CadencePinnedAcrossModes)
{
    // Both REF cadences (all-bank at postpone 0/4/8, per-bank) on an
    // 8-bank and a 16-bank grade, under a long read stream whose
    // bursts outlast the postponement allowance and under the
    // priority storm's write drains. Any change to the due set, the
    // fits-idle test, the postponement bound or the REFpb rotation
    // moves at least one field.
    struct Case
    {
        const char *grade;
        const char *spec;
        bool storm;
        RefreshPin pin;
    };
    const Case cases[] = {
        {"ddr3-1600", "batched:refresh=auto,refresh_postpone=0", false,
         {67u, 0u, 0u, 0x54bd75381d9ddbf5ull, 421432, 0x8ea7e2ff8f3296d4ull}},
        {"ddr3-1600", "batched:refresh=auto,refresh_postpone=0", true,
         {3u, 0u, 0u, 0x31fec4dfb03b5205ull, 21581, 0xa40ccc5df73f9cadull}},
        {"ddr3-1600", "batched:refresh=auto,refresh_postpone=4", false,
         {63u, 0u, 0u, 0x3c287c481d14a805ull, 421432, 0x7e5e081b50a257c4ull}},
        {"ddr3-1600", "batched:refresh=auto,refresh_postpone=4", true,
         {0u, 0u, 0u, 0xab0c262759a1d225ull, 21413, 0x7d5b86393f187bb8ull}},
        {"ddr3-1600", "batched:refresh=auto,refresh_postpone=8", false,
         {59u, 0u, 0u, 0x89ece32df70eed85ull, 421432, 0x57395e9e119eb2c4ull}},
        {"ddr3-1600", "batched:refresh=auto,refresh_postpone=8", true,
         {0u, 0u, 0u, 0xab0c262759a1d225ull, 21413, 0x7d5b86393f187bb8ull}},
        {"ddr3-1600", "batched:refresh=per-bank", false,
         {0u, 532u, 75944u, 0xf250205f13be44e5ull, 421432, 0xad2038e15e633c65ull}},
        {"ddr3-1600", "batched:refresh=per-bank", true,
         {0u, 26u, 8008u, 0xc45a44e9e1cb1c05ull, 21401, 0xce73ecdf82b9a0acull}},
        {"ddr4-3200", "batched:refresh=auto,refresh_postpone=0", false,
         {36u, 0u, 0u, 0x3e906196e7fe57a5ull, 461134, 0xa3368c74128cfe25ull}},
        {"ddr4-3200", "batched:refresh=auto,refresh_postpone=0", true,
         {3u, 0u, 0u, 0xa875517d2a5c5245ull, 40196, 0xf3d28245b9feff0cull}},
        {"ddr4-3200", "batched:refresh=auto,refresh_postpone=4", false,
         {32u, 0u, 0u, 0xb6acdcd9c3e64b25ull, 460260, 0x660cd8290e61a765ull}},
        {"ddr4-3200", "batched:refresh=auto,refresh_postpone=4", true,
         {0u, 0u, 0u, 0xc86ec345c0ee8125ull, 39742, 0xb6470a2d2da4c1c7ull}},
        {"ddr4-3200", "batched:refresh=auto,refresh_postpone=8", false,
         {28u, 0u, 0u, 0x9474bf98c8c78a25ull, 459364, 0xa1ef983a30336535ull}},
        {"ddr4-3200", "batched:refresh=auto,refresh_postpone=8", true,
         {0u, 0u, 0u, 0xc86ec345c0ee8125ull, 39742, 0xb6470a2d2da4c1c7ull}},
        {"ddr4-3200", "batched:refresh=per-bank", false,
         {0u, 581u, 278960u, 0x6fc4f794093ff9bcull, 459982, 0x770a1df547917500ull}},
        {"ddr4-3200", "batched:refresh=per-bank", true,
         {0u, 41u, 25872u, 0x123fe45cf47c95dbull, 40030, 0x551a55593393734full}},
    };
    for (const Case &k : cases) {
        const DramConfig grade = DramConfig::preset(k.grade, 256);
        const RefreshPin got = runRefreshPin(grade, k.spec, k.storm);
        SCOPED_TRACE(std::string(k.grade) + " " + k.spec +
                     (k.storm ? " storm" : " reads"));
        EXPECT_EQ(got.ref, k.pin.ref);
        EXPECT_EQ(got.refpb, k.pin.refpb);
        EXPECT_EQ(got.overlap, k.pin.overlap);
        EXPECT_EQ(got.bank_hash, k.pin.bank_hash);
        EXPECT_EQ(got.last_issue, k.pin.last_issue);
        EXPECT_EQ(got.latency_hash, k.pin.latency_hash);
    }
}

} // namespace
} // namespace codic
