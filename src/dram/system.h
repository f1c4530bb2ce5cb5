/**
 * @file
 * Multi-channel DRAM system: owns `config.channels` independent
 * DramChannels plus one FR-FCFS MemoryController per channel, and
 * routes every request to the owning channel through a module-wide
 * address map (channel-aware MapSchemes interleave consecutive lines
 * or row blocks across channels).
 *
 * This is the substrate the scale work builds on: channels have fully
 * independent timing state (their own banks, ranks, data buses and
 * write queues), so a channel-interleaved workload overlaps DRAM
 * access latencies across channels exactly as real hardware does,
 * while the JEDEC timing checker stays enabled on every channel.
 *
 * The system itself follows the same ownership rule as a single
 * channel: no internal synchronization, one DramSystem per simulation
 * thread (the parallel campaign engine gives each task its own).
 */

#ifndef CODIC_DRAM_SYSTEM_H
#define CODIC_DRAM_SYSTEM_H

#include <memory>
#include <vector>

#include "dram/channel.h"
#include "dram/config.h"
#include "mem/controller.h"
#include "mem/service.h"

namespace codic {

/** N-channel DRAM module with per-channel controllers. */
class DramSystem : public MemoryService
{
  public:
    /**
     * @param config Module configuration; config.channels channels
     *        are instantiated (validated, >= 1).
     * @param controller_config Applied to every per-channel
     *        controller (map scheme, queue depths).
     */
    explicit DramSystem(const DramConfig &config,
                        const ControllerConfig &controller_config = {});

    /** Module configuration. */
    const DramConfig &config() const { return config_; }
    const DramConfig &dramConfig() const override { return config_; }

    /** Number of channels. */
    int channelCount() const
    {
        return static_cast<int>(channels_.size());
    }

    /** One channel (timing state, counters, row data states). */
    DramChannel &channel(int i);
    const DramChannel &channel(int i) const;

    /** The channel-local controller handed out by the system. */
    MemoryController &controller(int i);

    /** Channel owning a physical address under the current map. */
    int channelOf(uint64_t phys_addr) const
    {
        return map_.channelOf(phys_addr);
    }

    // MemoryService: route each transaction to the owning channel's
    // controller. System tickets encode (channel, local ticket)
    // arithmetically, so routing a resolution back is stateless.
    Ticket submit(const MemTransaction &txn) override;
    Cycle acceptedAt(Ticket ticket) const override;
    Cycle completionOf(Ticket ticket) override;
    void retire(Ticket ticket) override;
    void onComplete(Ticket ticket, CompletionCallback fn) override;

    /**
     * Tap the recorder exactly as submit() does, decode once and hand
     * the transaction to the owning controller's serve(): no system
     * ticket is packed or unpacked.
     */
    Cycle serve(const MemTransaction &txn) override;

    /** Advance every channel's scheduler to `now`. */
    size_t poll(Cycle now) override;

    /**
     * Drain every channel - queued reads/row ops and buffered
     * writes; max quiescence cycle across channels.
     */
    Cycle drainAll() override;

    /** Queued transactions summed over every channel. */
    size_t inFlightCount() const override;

    /** Buffered (unissued) writes summed over every channel queue. */
    size_t pendingWriteCount() const;

    /** Module-wide address map (identical in every controller). */
    const AddressMap &map() const override { return map_; }

    /**
     * Register a CODIC variant on every channel (each channel has its
     * own mode registers; the id is identical across channels).
     */
    int registerVariantAll(const SignalSchedule &sched);

    /** Per-channel issue counters, indexed by channel. */
    std::vector<CommandCounts> perChannelCounts() const;

    /**
     * Per-bank ACT/RD/WR/REF counters concatenated across channels,
     * indexed by (channel * ranks + rank) * banks + bank. Cumulative;
     * epoch deltas come from snapshot differencing (EpochStats).
     */
    std::vector<BankCounts> perBankCounts() const;

    /** Aggregate counters across all channels. */
    CommandCounts totalCounts() const;

    /** Largest issue cycle across all channels (campaign end time). */
    Cycle lastIssueCycle() const;

    /** Set every row of every channel to a given state. */
    void fillAllRows(RowDataState s);

    /** Count rows in a state across the whole module. */
    int64_t countRowsInState(RowDataState s) const;

  private:
    /** Pack a channel-local ticket into a system ticket. */
    Ticket packTicket(int channel, Ticket local) const;

    /** Channel / local-ticket components of a system ticket. */
    int ticketChannel(Ticket ticket) const;
    Ticket ticketLocal(Ticket ticket) const;

    DramConfig config_;
    AddressMap map_;
    std::vector<std::unique_ptr<DramChannel>> channels_;
    std::vector<std::unique_ptr<MemoryController>> controllers_;
};

} // namespace codic

#endif // CODIC_DRAM_SYSTEM_H
