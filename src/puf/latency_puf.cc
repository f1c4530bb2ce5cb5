#include "puf/latency_puf.h"

#include <algorithm>
#include <cmath>

namespace codic {

DramLatencyPuf::DramLatencyPuf(const LatencyPufParams &params)
    : params_(params)
{
}

double
DramLatencyPuf::failureProbability(const LatencyWeakCell &cell,
                                   double temperature_c) const
{
    const double dt = temperature_c - 30.0;
    const double theta = params_.theta_30c + params_.theta_per_c * dt;
    // The cell's effective strength drifts with temperature by a
    // per-cell amount, reshuffling which cells sit near threshold.
    const double strength =
        cell.strength +
        cell.temp_shift * params_.temp_shift_sigma * (dt / 55.0);
    const double z = (theta - strength) / params_.width;
    return 1.0 / (1.0 + std::exp(-z));
}

Response
DramLatencyPuf::evaluate(const SimulatedChip &chip,
                         const Challenge &challenge,
                         const QueryEnv &env) const
{
    Rng noise = chip.domainRng(0x1A7, env.nonce ^ 0x5c4d);
    Response r;
    for (const auto &cell : chip.latencyWeakCells(
             challenge.segment_id, challenge.segment_bits)) {
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
    Response r;
    for (const auto &cell : chip.latencyWeakCells(
             challenge.segment_id, challenge.segment_bits)) {
        const double p = failureProbability(cell, env.temperature_c);
        // Binomial(reads, p) failure count, via the normal
        // approximation with continuity correction (the filter only
        // cares about the > threshold tail; exact draws would cost
        // 100 RNG calls per cell on campaign-scale sweeps).
        const double n = static_cast<double>(params_.reads);
        const double mean = n * p;
        const double sd = std::sqrt(std::max(n * p * (1.0 - p), 1e-12));
        const int failures = static_cast<int>(
            std::llround(noise.gaussian(mean, sd)));
        if (failures > params_.filter_threshold)
            r.cells.push_back(cell.index);
    }
    return r;
}

int
DramLatencyPuf::passesPerEvaluation(bool filtered) const
{
    return filtered ? params_.reads : 1;
}

} // namespace codic
