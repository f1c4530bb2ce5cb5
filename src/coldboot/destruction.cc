#include "coldboot/destruction.h"

#include <algorithm>
#include <cmath>

#include "codic/variant.h"
#include "common/logging.h"
#include "dram/refresh.h"

namespace codic {

const char *
destructionMechanismName(DestructionMechanism m)
{
    switch (m) {
      case DestructionMechanism::Tcg: return "TCG";
      case DestructionMechanism::LisaClone: return "LISA-clone";
      case DestructionMechanism::RowClone: return "RowClone";
      case DestructionMechanism::Codic: return "CODIC";
    }
    panic("unknown destruction mechanism");
}

namespace {

/** Scale command counts by an extrapolation factor. */
CommandCounts
scaleCounts(const CommandCounts &c, double f)
{
    auto s = [f](uint64_t v) {
        return static_cast<uint64_t>(
            std::llround(static_cast<double>(v) * f));
    };
    CommandCounts out;
    out.act = s(c.act);
    out.pre = s(c.pre);
    out.rd = s(c.rd);
    out.wr = s(c.wr);
    out.ref = s(c.ref);
    out.mrs = s(c.mrs);
    out.codic = s(c.codic);
    out.rowclone = s(c.rowclone);
    out.lisa_rbm = s(c.lisa_rbm);
    return out;
}

/**
 * Self-destruction engine: per-row in-DRAM commands, round-robin
 * across all (rank, bank) pairs so tRRD/tFAW bank-level parallelism
 * is fully exploited (paper Section 5.2.2: "parallelizes commands
 * across banks ... while meeting the JEDEC timing specifications").
 */
Cycle
runSelfDestruct(DramChannel &channel, DestructionMechanism mech,
                int64_t rows_per_bank)
{
    const DramConfig &cfg = channel.config();
    int variant = -1;
    if (mech == DestructionMechanism::Codic) {
        variant = channel.registerVariant(variants::detZero().schedule);
        // Program the four CODIC mode registers via MRS.
        for (int i = 0; i < ModeRegisterFile::kMrsCommandsPerSchedule;
             ++i) {
            Command mrs;
            mrs.type = CommandType::Mrs;
            channel.issueAtEarliest(mrs, 0);
        }
    }

    Cycle done = 0;

    // Clone mechanisms need an all-zeros source row per bank; write
    // it through the interface once (row 0 of every bank).
    if (mech != DestructionMechanism::Codic) {
        for (int rank = 0; rank < cfg.ranks; ++rank) {
            for (int bank = 0; bank < cfg.banks; ++bank) {
                Address a{0, rank, bank, 0, 0};
                Command act{CommandType::Act, a, 0};
                const Cycle t = channel.issueAtEarliest(act, 0);
                Cycle last = t;
                for (int c = 0;
                     c < static_cast<int>(cfg.row_bytes /
                                          cfg.burst_bytes) &&
                     c < cfg.columns;
                     ++c) {
                    Command wr{CommandType::Wr, a, 0};
                    wr.addr.column = c;
                    wr.zero_fill = true;
                    last = channel.issueAtEarliest(wr, t);
                }
                Command pre{CommandType::Pre, a, 0};
                done = std::max(done, channel.issueAtEarliest(pre, last));
            }
        }
    }

    const int64_t first_row =
        mech == DestructionMechanism::Codic ? 0 : 1;
    const int pairs = cfg.ranks * cfg.banks;
    for (int64_t row = first_row; row < rows_per_bank; ++row) {
        if (mech == DestructionMechanism::Codic) {
            for (int p = 0; p < pairs; ++p) {
                Address a{0, p / cfg.banks, p % cfg.banks, row, 0};
                Command codic{CommandType::Codic, a, variant};
                done = std::max(done, channel.issueAtEarliest(codic, 0));
            }
            continue;
        }
        // Clone mechanisms: phase-ordered issue so the per-bank
        // ACT -> (hop) -> clone -> PRE dependency chains overlap
        // across banks instead of serializing on the command bus
        // (the clone of bank 0 must not delay the ACT of bank 1).
        for (int p = 0; p < pairs; ++p) {
            Address src{0, p / cfg.banks, p % cfg.banks, 0, 0};
            Command act{CommandType::Act, src, 0};
            channel.issueAtEarliest(act, 0);
        }
        std::vector<Cycle> ready(static_cast<size_t>(pairs), 0);
        if (mech == DestructionMechanism::LisaClone) {
            for (int p = 0; p < pairs; ++p) {
                Address src{0, p / cfg.banks, p % cfg.banks, 0, 0};
                Command rbm{CommandType::LisaRbm, src, 0};
                ready[static_cast<size_t>(p)] =
                    channel.issueAtEarliest(rbm, 0);
            }
        }
        for (int p = 0; p < pairs; ++p) {
            Address a{0, p / cfg.banks, p % cfg.banks, row, 0};
            Command clone{CommandType::RowClone, a, 0};
            channel.issueAtEarliest(clone,
                                    ready[static_cast<size_t>(p)]);
        }
        for (int p = 0; p < pairs; ++p) {
            Address a{0, p / cfg.banks, p % cfg.banks, row, 0};
            Command pre{CommandType::Pre, a, 0};
            done = std::max(done, channel.issueAtEarliest(pre, 0));
        }
    }
    return done;
}

/**
 * TCG firmware overwrite: the CPU writes each 64 B line and flushes
 * it, serializing on the line's DRAM writeback (CLFLUSH ordering).
 * Refresh stays enabled: the machine is operating normally.
 */
Cycle
runTcg(DramChannel &channel, int64_t rows_per_bank)
{
    const DramConfig &cfg = channel.config();
    const int lines_per_row =
        static_cast<int>(cfg.row_bytes / cfg.burst_bytes);
    const RefreshCadence cadence = RefreshCadence::of(cfg, false);
    std::vector<int64_t> refs_issued(static_cast<size_t>(cfg.ranks), 0);

    Cycle now = 0;
    for (int64_t row = 0; row < rows_per_bank; ++row) {
        for (int rank = 0; rank < cfg.ranks; ++rank) {
            for (int bank = 0; bank < cfg.banks; ++bank) {
                Address a{0, rank, bank, row, 0};
                Command act{CommandType::Act, a, 0};
                Cycle t = channel.issueAtEarliest(act, now);
                for (int c = 0; c < lines_per_row && c < cfg.columns;
                     ++c) {
                    Command wr{CommandType::Wr, a, 0};
                    wr.addr.column = c;
                    wr.zero_fill = true;
                    // CLFLUSH semantics: the next line's store waits
                    // for this line's writeback to complete.
                    t = channel.issueAtEarliest(wr, t);
                }
                Command pre{CommandType::Pre, a, 0};
                now = channel.issueAtEarliest(pre, t);
                // Refresh interleaves with the overwrite loop: every
                // bank is closed here, and every due REF issues.
                catchUpRefresh(channel, rank, cadence, 0, now,
                               refs_issued[static_cast<size_t>(rank)]);
            }
        }
    }
    return now;
}

} // namespace

SelfRefreshReuseTiming
selfRefreshReuseTiming(const DramConfig &dram)
{
    SelfRefreshReuseTiming t;
    // JEDEC: 8192 REF commands cover the array once per 64 ms window.
    t.distributed_ns = 64e6;
    t.burst_ns = 8192.0 * dram.cyclesToNs(dram.timing.trfc);
    return t;
}

DestructionResult
runDestruction(const DramConfig &dram, DestructionMechanism mechanism,
               const DestructionConfig &config)
{
    // Channels are fully independent and destruction traffic is
    // identical on each, so one channel is simulated explicitly and
    // the command/energy totals scale by the channel count while the
    // wall time does not (channels destroy concurrently).
    DramChannel channel(dram);
    channel.fillAllRows(RowDataState::Data);

    const int64_t total_rows = dram.totalRows();
    const int64_t rows_per_bank = dram.rows;
    int64_t sim_rows_per_bank = rows_per_bank;
    if (config.max_simulated_rows > 0) {
        const int64_t cap = std::max<int64_t>(
            1, config.max_simulated_rows / (dram.ranks * dram.banks));
        sim_rows_per_bank = std::min(rows_per_bank, cap);
    }
    const double factor = static_cast<double>(rows_per_bank) /
                          static_cast<double>(sim_rows_per_bank);

    Cycle end;
    if (mechanism == DestructionMechanism::Tcg)
        end = runTcg(channel, sim_rows_per_bank);
    else
        end = runSelfDestruct(channel, mechanism, sim_rows_per_bank);

    // Verify the simulated prefix actually lost its data.
    for (int rank = 0; rank < dram.ranks; ++rank) {
        for (int bank = 0; bank < dram.banks; ++bank) {
            for (int64_t row = 0; row < sim_rows_per_bank;
                 row += std::max<int64_t>(1, sim_rows_per_bank / 64)) {
                const RowDataState s = channel.rowState(rank, bank, row);
                if (s == RowDataState::Data) {
                    panic("destruction left data in rank ", rank,
                          " bank ", bank, " row ", row);
                }
            }
        }
    }

    DestructionResult result;
    result.extrapolated = factor > 1.0 || dram.channels > 1;
    result.rows_destroyed = total_rows;
    const double sim_ns = dram.cyclesToNs(end);
    result.time_ns = sim_ns * factor;
    result.counts =
        scaleCounts(channel.counts(), factor * dram.channels);
    // Commands were already scaled across channels; the background
    // term accrues once per channel on top.
    result.energy_nj =
        campaignEnergyNj(result.counts, result.time_ns, config.energy) +
        (dram.channels - 1) * config.energy.background_mw * 1e-3 *
            result.time_ns;
    return result;
}

} // namespace codic
