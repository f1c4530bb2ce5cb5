/**
 * @file
 * PUF evaluation-time model (paper Table 4).
 *
 * Two time scales are reported:
 *  - SoftMC scale: the paper measures evaluation latency through the
 *    SoftMC FPGA infrastructure, where one full pass over an 8 KB
 *    segment costs ~0.882 ms (dominated by the host interface, not
 *    by DRAM timing). Pass counts per mechanism follow from the
 *    mechanisms themselves: the DRAM Latency PUF needs 100 read
 *    passes, PreLatPUF needs a write+disturb+read sequence worth
 *    1.8 read-passes, CODIC-sig needs a single pass; filters multiply
 *    by the number of repeated challenges.
 *  - Native scale: the command-level latency the same evaluation
 *    would take on a real memory controller, computed by streaming
 *    the actual command sequence through the cycle-accurate channel.
 */

#ifndef CODIC_PUF_RESPONSE_TIME_H
#define CODIC_PUF_RESPONSE_TIME_H

#include <string>

#include "dram/config.h"

namespace codic {

/** Which PUF's evaluation sequence to time. */
enum class PufKind { CodicSig, CodicSigOpt, Prelat, Latency };

/** Evaluation time at both reporting scales. */
struct EvalTime
{
    double softmc_ms; //!< Paper's Table 4 scale.
    double native_ns; //!< Cycle-accurate command-level latency.
};

/** Model constants. */
struct ResponseTimeParams
{
    /** SoftMC cost of one full pass over an 8 KB segment (ms). */
    double softmc_pass_ms = 0.882;

    /** PreLatPUF pass cost relative to a read pass. */
    double prelat_pass_cost = 1.8;

    /** DRAM Latency PUF filter reads. */
    int latency_reads = 100;

    /** CODIC-sig / PreLatPUF conservative filter depth. */
    int filter_challenges = 5;

    /** Segment size in bytes (paper: 8 KB). */
    int64_t segment_bytes = 8192;
};

/**
 * Evaluation time of one PUF over one segment.
 * @param kind PUF mechanism.
 * @param filtered Apply the PUF's production filter.
 * @param config DRAM device to compute the native time against.
 * @param params Model constants.
 */
EvalTime evaluationTime(PufKind kind, bool filtered,
                        const DramConfig &config,
                        const ResponseTimeParams &params = {});

} // namespace codic

#endif // CODIC_PUF_RESPONSE_TIME_H
