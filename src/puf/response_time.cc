#include "puf/response_time.h"

#include "common/logging.h"
#include "dram/channel.h"

namespace codic {

namespace {

/**
 * Native command-level time of one read pass over a segment: ACT,
 * sequential RD bursts, PRE; all through the JEDEC checker.
 */
double
readPassNs(DramChannel &channel, int64_t segment_bytes)
{
    const auto &cfg = channel.config();
    const int bursts = static_cast<int>(segment_bytes / cfg.burst_bytes);
    Address a;
    Command act{CommandType::Act, a, 0};
    Cycle t = channel.issueAtEarliest(act, channel.lastIssueCycle());
    Cycle done = t;
    for (int i = 0; i < bursts && i < cfg.columns; ++i) {
        Command rd{CommandType::Rd, a, 0};
        rd.addr.column = i;
        done = channel.issueAtEarliest(rd, t);
    }
    Command pre{CommandType::Pre, a, 0};
    done = std::max(done, channel.issueAtEarliest(pre, done));
    return cfg.cyclesToNs(done);
}

/** Native time of one CODIC-sig pass: CODIC command + read pass. */
double
sigPassNs(const DramConfig &cfg, int64_t segment_bytes, bool optimized)
{
    DramChannel channel(cfg);
    const auto variant = optimized ? variants::sigOpt() : variants::sig();
    const int id = channel.registerVariant(variant.schedule);
    Address a;
    Command codic{CommandType::Codic, a, id};
    channel.issueAtEarliest(codic, 0);
    return readPassNs(channel, segment_bytes);
}

/** Native time of one PreLatPUF pass: write pass + read pass. */
double
prelatPassNs(const DramConfig &cfg, int64_t segment_bytes)
{
    DramChannel channel(cfg);
    const int bursts = static_cast<int>(segment_bytes / cfg.burst_bytes);
    Address a;
    Command act{CommandType::Act, a, 0};
    Cycle t = channel.issueAtEarliest(act, 0);
    for (int i = 0; i < bursts && i < cfg.columns; ++i) {
        Command wr{CommandType::Wr, a, 0};
        wr.addr.column = i;
        channel.issueAtEarliest(wr, t);
    }
    Command pre{CommandType::Pre, a, 0};
    channel.issueAtEarliest(pre, channel.lastIssueCycle());
    return readPassNs(channel, segment_bytes);
}

/** Native time of N read passes (the DRAM Latency PUF). */
double
latencyPassesNs(const DramConfig &cfg, int64_t segment_bytes, int reads)
{
    DramChannel channel(cfg);
    double last = 0.0;
    for (int i = 0; i < reads; ++i)
        last = readPassNs(channel, segment_bytes);
    return last;
}

} // namespace

EvalTime
evaluationTime(PufKind kind, bool filtered, const DramConfig &config,
               const ResponseTimeParams &params)
{
    EvalTime out{0.0, 0.0};
    switch (kind) {
      case PufKind::CodicSig:
      case PufKind::CodicSigOpt: {
        const int evals = filtered ? params.filter_challenges : 1;
        out.softmc_ms = params.softmc_pass_ms * evals;
        out.native_ns =
            sigPassNs(config, params.segment_bytes,
                      kind == PufKind::CodicSigOpt) * evals;
        break;
      }
      case PufKind::Prelat: {
        const int evals = filtered ? params.filter_challenges : 1;
        out.softmc_ms =
            params.softmc_pass_ms * params.prelat_pass_cost * evals;
        out.native_ns =
            prelatPassNs(config, params.segment_bytes) * evals;
        break;
      }
      case PufKind::Latency: {
        // The filter is integral to the mechanism; an unfiltered
        // Latency PUF is not usable (paper Section 6.1.1).
        out.softmc_ms = params.softmc_pass_ms * params.latency_reads;
        out.native_ns = latencyPassesNs(config, params.segment_bytes,
                                        params.latency_reads);
        break;
      }
    }
    return out;
}

} // namespace codic
