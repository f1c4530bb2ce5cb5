#include "trng/trng.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/logging.h"
#include "common/parallel.h"
#include "nist/extractor.h"
#include "nist/special_functions.h"

namespace codic {

TrngHealthTests::TrngHealthTests(int repetition_cutoff, int window,
                                 int proportion_cutoff)
    : repetition_cutoff_(repetition_cutoff), window_(window),
      proportion_cutoff_(proportion_cutoff)
{
    CODIC_ASSERT(repetition_cutoff > 1);
    CODIC_ASSERT(proportion_cutoff > window / 2);
}

bool
TrngHealthTests::feed(uint8_t bit)
{
    ++observed_;
    // Repetition count test (SP 800-90B 4.4.1).
    if (bit == last_bit_) {
        if (++run_length_ >= repetition_cutoff_)
            failed_ = true;
    } else {
        last_bit_ = bit;
        run_length_ = 1;
    }
    // Adaptive proportion test (SP 800-90B 4.4.2).
    if (window_fill_ == 0) {
        window_first_ = bit;
        window_matches_ = 1;
        window_fill_ = 1;
    } else {
        if (bit == window_first_)
            ++window_matches_;
        if (++window_fill_ >= window_) {
            if (window_matches_ >= proportion_cutoff_)
                failed_ = true;
            window_fill_ = 0;
        }
    }
    return !failed_;
}

CodicTrng::CodicTrng(const TrngConfig &config) : config_(config)
{
    // Enrollment: scan the segment's SA population (deterministic per
    // device) for cells whose effective offset sits inside the
    // metastable window around the trip point.
    Rng device(config_.run.seed ^ 0x7241D);
    const double sigma = saOffsetSigma(config_.params);
    const double bias = designedSaBiasAt(config_.params);
    const double noise_rms = thermalNoiseRms(config_.params);
    const double window = config_.metastable_window * noise_rms;

    // Sites are drawn in Box-Muller pairs, the stream gaussian() uses.
    // Both offsets of a pair are at most sigma * r in magnitude, so
    // when sigma * r < |bias| - window neither can reach the window.
    // That is u1 > exp(-reach^2 / 2): such a pair is rejected without
    // the transcendentals, and only the few tail candidates pay them.
    // The 1e-9 margin absorbs log/exp rounding; when the window
    // covers the bias, u_skip = 2 and nothing is skipped.
    const double reach = (std::fabs(bias) - window) / sigma;
    const double u_skip = std::fabs(bias) <= window
                              ? 2.0
                              : std::exp(-0.5 * reach * reach) * (1.0 + 1e-9);
    const auto consider = [&](int64_t i, double z) {
        const double offset = 0.0 + sigma * z; // gaussian(0.0, sigma).
        const double residual = offset + bias;
        if (std::fabs(residual) < window) {
            MetastableCell cell;
            cell.index = static_cast<uint32_t>(i);
            cell.offset = residual;
            // P(read 1) = P(residual + noise > 0).
            cell.p_one = 1.0 - normalCdf(-residual / noise_rms);
            sources_.push_back(cell);
        }
    };
    for (int64_t i = 0; i < config_.segment_bits; i += 2) {
        double z_cos = 0.0;
        double z_sin = 0.0;
        if (!device.gaussianPair(u_skip, z_cos, z_sin))
            continue;
        consider(i, z_cos);
        // An odd segment drops the last pair's sine: site i still gets
        // the i-th draw of one gaussian() per site.
        if (i + 1 < config_.segment_bits)
            consider(i + 1, z_sin);
    }
}

std::vector<uint8_t>
CodicTrng::harvest(size_t bits, Rng &noise, TrngHealthTests *health)
{
    if (sources_.empty())
        fatal("TRNG enrollment found no metastable cells; widen the "
              "window or use a larger segment");
    std::vector<uint8_t> out;
    out.reserve(bits);
    size_t guard = 0;
    while (out.size() < bits) {
        // Two back-to-back CODIC commands: each metastable source
        // flips its coin twice. The Von Neumann pair is formed
        // *per cell across the two evaluations* - pairing adjacent
        // cells would combine different biases p_i != p_j, for which
        // P(01) != P(10) and the extractor output stays biased.
        for (const auto &cell : sources_) {
            const uint8_t first = noise.chance(cell.p_one) ? 1 : 0;
            const uint8_t second = noise.chance(cell.p_one) ? 1 : 0;
            if (health) {
                health->feed(first);
                health->feed(second);
            }
            if (first != second && out.size() < bits)
                out.push_back(first);
        }
        if (++guard > 100 * bits + 1000)
            fatal("TRNG harvest is not converging");
    }
    return out;
}

double
CodicTrng::rawThroughputBitsPerSec() const
{
    return static_cast<double>(sources_.size()) /
           (config_.harvest_latency_ns * 1e-9);
}

std::vector<CodicTrng>
enrollDevices(const TrngConfig &base, size_t count)
{
    // Each device's enrollment scan is deterministic from its own
    // device seed, so devices are independent tasks.
    std::vector<std::unique_ptr<CodicTrng>> enrolled(count);
    CampaignEngine engine(base.run.threads);
    engine.forEach(count, [&](size_t i) {
        TrngConfig cfg = base;
        cfg.run.seed = base.run.seed + i;
        enrolled[i] = std::make_unique<CodicTrng>(cfg);
    });

    std::vector<CodicTrng> out;
    out.reserve(count);
    for (auto &dev : enrolled)
        out.push_back(std::move(*dev));
    return out;
}

double
CodicTrng::whitenedThroughputBitsPerSec() const
{
    // Von Neumann emits one bit per discordant pair; with per-cell
    // p near 1/2 the expected yield is ~1/4 of the raw bits.
    double yield = 0.0;
    for (const auto &cell : sources_)
        yield += cell.p_one * (1.0 - cell.p_one);
    return yield / (config_.harvest_latency_ns * 1e-9);
}

} // namespace codic
