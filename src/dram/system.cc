#include "dram/system.h"

#include <algorithm>

#include "common/logging.h"
#include "trace/recorder.h"

namespace codic {

DramSystem::DramSystem(const DramConfig &config,
                       const ControllerConfig &controller_config)
    : config_(config), map_(config, controller_config.map_scheme)
{
    config_.validate();
    channels_.reserve(static_cast<size_t>(config_.channels));
    controllers_.reserve(static_cast<size_t>(config_.channels));
    for (int c = 0; c < config_.channels; ++c) {
        channels_.push_back(
            std::make_unique<DramChannel>(config_, c));
        controllers_.push_back(std::make_unique<MemoryController>(
            *channels_.back(), controller_config));
    }
}

DramChannel &
DramSystem::channel(int i)
{
    CODIC_ASSERT(i >= 0 && i < channelCount());
    return *channels_[static_cast<size_t>(i)];
}

const DramChannel &
DramSystem::channel(int i) const
{
    CODIC_ASSERT(i >= 0 && i < channelCount());
    return *channels_[static_cast<size_t>(i)];
}

MemoryController &
DramSystem::controller(int i)
{
    CODIC_ASSERT(i >= 0 && i < channelCount());
    return *controllers_[static_cast<size_t>(i)];
}

// System tickets pack (channel, channel-local ticket) as
// (local - 1) * channels + channel + 1: a bijection, so no routing
// table is needed and kInvalidTicket (0) is never produced.

Ticket
DramSystem::packTicket(int channel, Ticket local) const
{
    return (local - 1) *
               static_cast<Ticket>(channelCount()) +
           static_cast<Ticket>(channel) + 1;
}

int
DramSystem::ticketChannel(Ticket ticket) const
{
    CODIC_ASSERT(ticket != kInvalidTicket);
    return static_cast<int>((ticket - 1) %
                            static_cast<Ticket>(channelCount()));
}

Ticket
DramSystem::ticketLocal(Ticket ticket) const
{
    return (ticket - 1) / static_cast<Ticket>(channelCount()) + 1;
}

Ticket
DramSystem::submit(const MemTransaction &txn)
{
    if (TraceRecorder::active())
        TraceRecorder::tap(txn);
    // Decode once: the coordinates route the transaction AND ride
    // into the owning controller's queue entry.
    const Address addr = map_.decode(txn.addr);
    const Ticket local = controller(addr.channel).submit(txn, addr);
    return packTicket(addr.channel, local);
}

Cycle
DramSystem::acceptedAt(Ticket ticket) const
{
    return controllers_[static_cast<size_t>(ticketChannel(ticket))]
        ->acceptedAt(ticketLocal(ticket));
}

Cycle
DramSystem::completionOf(Ticket ticket)
{
    return controller(ticketChannel(ticket))
        .completionOf(ticketLocal(ticket));
}

void
DramSystem::retire(Ticket ticket)
{
    controller(ticketChannel(ticket)).retire(ticketLocal(ticket));
}

void
DramSystem::onComplete(Ticket ticket, CompletionCallback fn)
{
    // The consumer registered against the system ticket, so the
    // channel-local firing re-translates before invoking.
    controller(ticketChannel(ticket))
        .onComplete(ticketLocal(ticket),
                    [fn = std::move(fn), ticket](Ticket, Cycle done) {
                        fn(ticket, done);
                    });
}

size_t
DramSystem::poll(Cycle now)
{
    size_t serviced = 0;
    for (auto &mc : controllers_)
        serviced += mc->poll(now);
    return serviced;
}

Cycle
DramSystem::drainAll()
{
    Cycle last = 0;
    for (auto &mc : controllers_)
        last = std::max(last, mc->drainAll());
    return last;
}

size_t
DramSystem::inFlightCount() const
{
    size_t n = 0;
    for (const auto &mc : controllers_)
        n += mc->inFlightCount();
    return n;
}

size_t
DramSystem::pendingWriteCount() const
{
    size_t n = 0;
    for (const auto &mc : controllers_)
        n += mc->pendingWriteCount();
    return n;
}

int
DramSystem::registerVariantAll(const SignalSchedule &sched)
{
    int id = -1;
    for (auto &ch : channels_) {
        const int got = ch->registerVariant(sched);
        if (id < 0)
            id = got;
        else
            CODIC_ASSERT(got == id);
    }
    return id;
}

std::vector<CommandCounts>
DramSystem::perChannelCounts() const
{
    std::vector<CommandCounts> out;
    out.reserve(channels_.size());
    for (const auto &ch : channels_)
        out.push_back(ch->counts());
    return out;
}

std::vector<BankCounts>
DramSystem::perBankCounts() const
{
    std::vector<BankCounts> out;
    out.reserve(channels_.size() *
                static_cast<size_t>(config_.ranks * config_.banks));
    for (const auto &ch : channels_)
        for (const BankCounts &b : ch->counts().per_bank)
            out.push_back(b);
    return out;
}

CommandCounts
DramSystem::totalCounts() const
{
    CommandCounts total;
    for (const auto &ch : channels_)
        total += ch->counts();
    return total;
}

Cycle
DramSystem::lastIssueCycle() const
{
    Cycle last = 0;
    for (const auto &ch : channels_)
        last = std::max(last, ch->lastIssueCycle());
    return last;
}

void
DramSystem::fillAllRows(RowDataState s)
{
    for (auto &ch : channels_)
        ch->fillAllRows(s);
}

int64_t
DramSystem::countRowsInState(RowDataState s) const
{
    int64_t n = 0;
    for (const auto &ch : channels_)
        n += ch->countRowsInState(s);
    return n;
}

} // namespace codic
