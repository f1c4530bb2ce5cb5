#include "dram/refresh.h"

#include <algorithm>

namespace codic {

RefreshCadence
RefreshCadence::of(const DramConfig &config, bool per_bank)
{
    const TimingParams &t = config.timing;
    if (!per_bank)
        return {t.trefi, t.trfc, false};
    return {std::max<Cycle>(1, t.trefi / static_cast<Cycle>(config.banks)),
            t.trfcpb, true};
}

void
catchUpRefresh(DramChannel &channel, int rank,
               const RefreshCadence &cadence, int postpone, Cycle t,
               int64_t &issued)
{
    const int banks = channel.config().banks;
    // The engine is always on: a command that can both come due and
    // *complete* in the idle stretch before the work at cycle t
    // issues on time and costs the workload nothing - this is also
    // how deferred debt repays itself in the next quiet gap.
    while (t / cadence.period - issued > 0) {
        const Cycle due = (issued + 1) * cadence.period;
        const bool fits_idle =
            std::max(due, channel.lastIssueCycle()) + cadence.lockout <=
            t;
        if (!fits_idle &&
            t / cadence.period - issued <= static_cast<int64_t>(postpone))
            break; // Busy: defer within the allowance.
        Address a;
        a.channel = channel.channelId();
        a.rank = rank;
        // REF needs every bank of the rank precharged; REFpb only
        // its target, so the sibling banks keep their rows open
        // (the parallelism counted by refresh_overlap_cycles).
        const int first =
            cadence.per_bank ? static_cast<int>(issued % banks) : 0;
        const int end = cadence.per_bank ? first + 1 : banks;
        for (a.bank = first; a.bank < end; ++a.bank) {
            if (!channel.bankActive(rank, a.bank))
                continue;
            Command pre{CommandType::Pre, a, 0};
            channel.issueAtEarliest(pre, due);
        }
        a.bank = first;
        Command ref{cadence.per_bank ? CommandType::RefPb
                                     : CommandType::Ref,
                    a, 0};
        channel.issueAtEarliest(ref, due);
        ++issued;
    }
}

} // namespace codic
