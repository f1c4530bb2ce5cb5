/**
 * @file
 * CODIC-based True Random Number Generator (paper Section 5.3.1:
 * "A substrate such as CODIC would ... enable new TRNGs that exploit
 * new failure mechanisms for generating random numbers").
 *
 * Mechanism: CODIC-sigsa-class commands amplify a precharged bitline
 * from pure SA mismatch plus thermal noise. Cells whose offset
 * magnitude is below the thermal-noise RMS are *metastable*: their
 * outcome is a fresh coin flip on every evaluation. The TRNG
 * enumerates metastable cells once (enrollment), then harvests one
 * raw bit per metastable cell per CODIC command, whitens with a Von
 * Neumann extractor, and guards quality with the SP 800-90B
 * continuous health tests (repetition count + adaptive proportion).
 */

#ifndef CODIC_TRNG_TRNG_H
#define CODIC_TRNG_TRNG_H

#include <cstdint>
#include <vector>

#include "circuit/params.h"
#include "common/rng.h"
#include "common/run_options.h"

namespace codic {

/** One metastable SA/cell site usable as an entropy source. */
struct MetastableCell
{
    uint32_t index;     //!< Position within the enrolled segment.
    double offset;      //!< Residual offset (|offset| < noise RMS).
    double p_one;       //!< Per-evaluation probability of reading 1.
};

/** Configuration of the CODIC TRNG. */
struct TrngConfig
{
    /**
     * Shared options. `run.seed` is the device's process-variation
     * identity (what used to be a separate `device_seed` field);
     * `run.threads` drives population enrollment (enrollDevices).
     */
    RunOptions run;

    CircuitParams params;      //!< Device electricals.
    int segment_bits = 65536;  //!< Segment scanned for sources.
    /**
     * Enrollment keeps cells whose |offset + designed bias| is below
     * this multiple of the thermal-noise RMS (smaller = fewer but
     * less biased sources).
     */
    double metastable_window = 1.0;
    /** Evaluation latency of one harvest command (sigsa-class), ns. */
    double harvest_latency_ns = 35.0;
};

/** SP 800-90B-style continuous health tests. */
class TrngHealthTests
{
  public:
    /**
     * @param repetition_cutoff Consecutive identical bits tolerated.
     * @param window Adaptive-proportion window size.
     * @param proportion_cutoff Max identical bits inside a window.
     */
    TrngHealthTests(int repetition_cutoff = 41, int window = 1024,
                    int proportion_cutoff = 624);

    /** Feed one raw bit; returns false if a health test trips. */
    bool feed(uint8_t bit);

    /** True once any health test has ever tripped. */
    bool failed() const { return failed_; }

    /** Bits observed so far. */
    uint64_t observed() const { return observed_; }

  private:
    int repetition_cutoff_;
    int window_;
    int proportion_cutoff_;
    uint8_t last_bit_ = 2;
    int run_length_ = 0;
    int window_fill_ = 0;
    uint8_t window_first_ = 0;
    int window_matches_ = 0;
    bool failed_ = false;
    uint64_t observed_ = 0;
};

/**
 * The CODIC TRNG: enrollment plus harvest.
 *
 * The simulated entropy source mirrors the circuit model: a
 * deterministic per-device population of SA offsets (hashed from the
 * device seed), with thermal noise supplied per harvest from a
 * physical-noise stream.
 */
class CodicTrng
{
  public:
    explicit CodicTrng(const TrngConfig &config);

    /** Metastable sources found at enrollment. */
    const std::vector<MetastableCell> &sources() const
    {
        return sources_;
    }

    /**
     * Harvest `bits` whitened random bits.
     * @param noise Physical-noise stream (thermal).
     * @param health Optional health-test monitor fed with raw bits.
     */
    std::vector<uint8_t> harvest(size_t bits, Rng &noise,
                                 TrngHealthTests *health = nullptr);

    /**
     * Raw (unwhitened) throughput in bits per second: one CODIC
     * command yields one bit per metastable source.
     */
    double rawThroughputBitsPerSec() const;

    /** Whitened throughput (Von Neumann: ~ p(1-p)/... of raw). */
    double whitenedThroughputBitsPerSec() const;

  private:
    TrngConfig config_;
    std::vector<MetastableCell> sources_;
};

/**
 * Enroll a population of `count` devices (device i has seed
 * base.run.seed + i) through the campaign engine at base.run.threads
 * workers. Enrollment walks segment_bits SA sites per device in
 * Box-Muller pairs: two xoshiro draws per pair, and the log, sqrt,
 * sin and cos only for the few pairs whose radius can reach the
 * metastable window (about 0.16 ms per 65,536-site device on a 4-vCPU
 * VM). The returned population is identical at any thread count.
 */
std::vector<CodicTrng> enrollDevices(const TrngConfig &base,
                                     size_t count);

} // namespace codic

#endif // CODIC_TRNG_TRNG_H
