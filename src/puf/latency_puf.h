/**
 * @file
 * The DRAM Latency PUF baseline (Kim et al., HPCA 2018 [80]; compared
 * against in paper Section 6.1).
 *
 * Mechanism: read the segment with a drastically reduced
 * tRCD = 2.5 ns; cells that cannot deliver enough charge in time fail
 * probabilistically. The production filter reads the segment 100
 * times and keeps only cells failing in more than 90 reads.
 *
 * Properties reproduced from the paper:
 *  - Intra-Jaccard distributed toward 1 but dispersed (noisy failure
 *    probabilities near the filter threshold);
 *  - excellent Inter-Jaccard (per-cell mechanism, independent across
 *    segments);
 *  - strong sensitivity to temperature (failure probabilities shift
 *    with T, reshuffling the filtered set; paper Fig. 6).
 */

#ifndef CODIC_PUF_LATENCY_PUF_H
#define CODIC_PUF_LATENCY_PUF_H

#include "puf/chip_model.h"
#include "puf/puf.h"

namespace codic {

/** Tuning constants of the DRAM Latency PUF model. */
struct LatencyPufParams
{
    int reads = 100;          //!< Reads per filtered evaluation.
    int filter_threshold = 90;//!< Keep cells failing > this many reads.
    double theta_30c = 0.35;  //!< Failure threshold at 30 C.
    double theta_per_c = 0.004; //!< Threshold shift per degree C.
    double width = 0.08;      //!< Logistic width of failure prob.
    double temp_shift_sigma = 1.2; //!< Per-cell strength drift scale.
};

/** The DRAM Latency PUF implementation. */
class DramLatencyPuf : public DramPuf
{
  public:
    explicit DramLatencyPuf(const LatencyPufParams &params = {});

    const char *name() const override { return "DRAM Latency PUF"; }

    /** Single unfiltered read pass (noisy). */
    Response evaluate(const SimulatedChip &chip,
                      const Challenge &challenge,
                      const QueryEnv &env) const override;

    /** The 100-read > 90 filter of the original proposal. */
    Response evaluateFiltered(const SimulatedChip &chip,
                              const Challenge &challenge,
                              const QueryEnv &env) const override;

    int passesPerEvaluation(bool filtered) const override;

    /** Failure probability of one weak cell at temperature T. */
    double failureProbability(const LatencyWeakCell &cell,
                              double temperature_c) const;

    /** Logit of failureProbability(): (theta(T) - strength) / width. */
    double failureLogit(const LatencyWeakCell &cell,
                        double temperature_c) const;

    /**
     * Failure logit below which the filter cannot keep a cell whose
     * noise draw has |z| < 4: reads * p + 4 * sd rounds to at most
     * filter_threshold. +inf when that holds at every p, -inf when
     * reads <= 0 or filter_threshold < 0 (no cap: every pair is
     * transformed).
     */
    double filterLogitCap() const { return logit_cap_; }

  private:
    LatencyPufParams params_;
    double logit_cap_;  //!< See filterLogitCap().
};

} // namespace codic

#endif // CODIC_PUF_LATENCY_PUF_H
