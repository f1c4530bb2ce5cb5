#include "puf/latency_puf.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace codic {

namespace {

/**
 * Noise radius below which a pair of cells under the logit cap both
 * fail the filter. A Box-Muller pair with u1 > kUCap has radius, and
 * so |z|, below kZCap; the 1e-9 keeps it below after rounding.
 */
constexpr double kZCap = 4.0;
const double kUCap = std::exp(-0.5 * kZCap * kZCap) * (1.0 + 1e-9);

double
logistic(double z)
{
    return 1.0 / (1.0 + std::exp(-z));
}

} // namespace

DramLatencyPuf::DramLatencyPuf(const LatencyPufParams &params)
    : params_(params), logit_cap_(-std::numeric_limits<double>::infinity())
{
    // The filter keeps a cell when llround(n p + sd z) > threshold,
    // n = reads, sd = sqrt(n p (1 - p)). For |z| < kZCap the count is
    // below f(p) = n p + kZCap sd, which rises from 0 to its single
    // maximum and then falls: it stays under c = threshold + 0.5 up to
    // its first crossing p1, the smaller root of
    // (n^2 + z^2 n) p^2 - (z^2 n + 2 c n) p + c^2 = 0.
    if (params_.reads <= 0 || params_.filter_threshold < 0)
        return;
    const double n = static_cast<double>(params_.reads);
    const double c = params_.filter_threshold + 0.5;
    const double z2 = kZCap * kZCap;
    const double b = n * (z2 + 2.0 * c);
    const double disc = n * z2 * (n * z2 + 4.0 * c * (n - c));
    if (disc < 0.0) {
        // f never reaches c: no |z| < kZCap keeps any cell.
        logit_cap_ = std::numeric_limits<double>::infinity();
        return;
    }
    const double p1 = 2.0 * c * c / (b + std::sqrt(disc));
    // Step down until f clears c by a margin far above the rounding
    // of the per-cell arithmetic.
    const auto bound = [&](double logit) {
        const double p = logistic(logit);
        return n * p + kZCap * std::sqrt(std::max(n * p * (1.0 - p),
                                                  1e-12));
    };
    double cap = std::log(p1 / (1.0 - p1));
    for (double step = 1e-9; bound(cap) >= c - 1e-6; step *= 2.0)
        cap -= step;
    logit_cap_ = cap;
}

double
DramLatencyPuf::failureLogit(const LatencyWeakCell &cell,
                             double temperature_c) const
{
    const double dt = temperature_c - 30.0;
    const double theta = params_.theta_30c + params_.theta_per_c * dt;
    // The cell's effective strength drifts with temperature by a
    // per-cell amount, reshuffling which cells sit near threshold.
    const double strength =
        cell.strength +
        cell.temp_shift * params_.temp_shift_sigma * (dt / 55.0);
    return (theta - strength) / params_.width;
}

double
DramLatencyPuf::failureProbability(const LatencyWeakCell &cell,
                                   double temperature_c) const
{
    return logistic(failureLogit(cell, temperature_c));
}

Response
DramLatencyPuf::evaluate(const SimulatedChip &chip,
                         const Challenge &challenge,
                         const QueryEnv &env) const
{
    Rng noise = chip.domainRng(0x1A7, env.nonce ^ 0x5c4d);
    Response r;
    for (const auto &cell : chip.latencyWeakCells(
             challenge.segment_id, challenge.segment_bits,
             env.temperature_c - 30.0)) {
        const double p = failureProbability(cell, env.temperature_c);
        if (noise.chance(p))
            r.cells.push_back(cell.index);
    }
    return r;
}

Response
DramLatencyPuf::evaluateFiltered(const SimulatedChip &chip,
                                 const Challenge &challenge,
                                 const QueryEnv &env) const
{
    Rng noise = chip.domainRng(0x1A7F, env.nonce ^ 0x77aa);
    const auto cells =
        chip.latencyWeakCells(challenge.segment_id,
                              challenge.segment_bits,
                              env.temperature_c - 30.0);
    const double n = static_cast<double>(params_.reads);
    Response r;
    const auto filter = [&](const LatencyWeakCell &cell, double logit,
                            double z) {
        // Binomial(reads, p) failure count, via the normal
        // approximation with continuity correction (the filter only
        // cares about the > threshold tail; exact draws would cost
        // 100 RNG calls per cell on campaign-scale sweeps).
        const double p = logistic(logit);
        const double mean = n * p;
        const double sd = std::sqrt(std::max(n * p * (1.0 - p), 1e-12));
        const int failures = static_cast<int>(std::llround(mean + sd * z));
        if (failures > params_.filter_threshold)
            r.cells.push_back(cell.index);
    };
    // Cells (k, k + 1) share one Box-Muller pair (cosine, sine), in
    // the order gaussian() draws them; an odd last cell drops its
    // sine. When both logits are under the cap, only a pair of radius
    // >= kZCap can keep either cell, so a smaller one is rejected
    // before the transform: both cells fail, the stream advances the
    // same.
    for (size_t k = 0; k < cells.size(); k += 2) {
        const bool has_pair = k + 1 < cells.size();
        const double logit0 = failureLogit(cells[k], env.temperature_c);
        const double logit1 =
            has_pair ? failureLogit(cells[k + 1], env.temperature_c)
                     : logit0;
        const bool capped = logit0 < logit_cap_ && logit1 < logit_cap_;
        double z_cos = 0.0;
        double z_sin = 0.0;
        if (!noise.gaussianPair(capped ? kUCap : 1.0, z_cos, z_sin))
            continue;
        filter(cells[k], logit0, z_cos);
        if (has_pair)
            filter(cells[k + 1], logit1, z_sin);
    }
    return r;
}

int
DramLatencyPuf::passesPerEvaluation(bool filtered) const
{
    return filtered ? params_.reads : 1;
}

} // namespace codic
