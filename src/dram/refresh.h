/**
 * @file
 * The one JEDEC REF cadence, shared by the FR-FCFS controller's
 * injected refresh (all-bank or per-bank, with postponement) and the
 * TCG firmware overwrite, which runs with refresh enabled because the
 * machine is operating normally. The self-destruction campaigns run
 * at power-on before refresh starts, which is why they are legally
 * refresh-free (JEDEC requires refresh only after initialization
 * completes).
 */

#ifndef CODIC_DRAM_REFRESH_H
#define CODIC_DRAM_REFRESH_H

#include <cstdint>

#include "dram/channel.h"

namespace codic {

/**
 * Period, lockout and target of one rank's refresh commands.
 * All-bank: one REF every tREFI, locking the whole rank for tRFC.
 * Per-bank: one REFpb every tREFIpb = tREFI / banks to bank
 * `k % banks` for the k-th command, locking only that bank for
 * tRFCpb - every bank is still refreshed once per tREFI.
 */
struct RefreshCadence
{
    Cycle period = 0;
    Cycle lockout = 0;
    bool per_bank = false;

    /** The cadence of `config`'s timing in the given mode. */
    static RefreshCadence of(const DramConfig &config, bool per_bank);
};

/**
 * Issue to `rank` the refreshes due by cycle `t`. Command k (counted
 * from 0 in `issued`, advanced in place) is due at (k + 1) * period.
 * A due command whose lockout fits in the idle stretch before `t`
 * issues at its due cycle; one that would overlap work at `t` is
 * deferred while the debt stays within `postpone` commands, and only
 * debt beyond the allowance stalls work. Active target banks are
 * precharged first. With `postpone` = 0 every due command issues.
 */
void catchUpRefresh(DramChannel &channel, int rank,
                    const RefreshCadence &cadence, int postpone,
                    Cycle t, int64_t &issued);

} // namespace codic

#endif // CODIC_DRAM_REFRESH_H
