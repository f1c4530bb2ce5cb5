#include "puf/sig_puf.h"

#include <algorithm>
#include <iterator>

namespace codic {

namespace {

/**
 * The deterministic part of one CODIC-sig query: the segment's flip
 * cells, the cells added at this temperature and the per-query
 * thresholds. Every pass of the majority filter shares it; only the
 * per-pass noise differs.
 */
struct SigPopulation
{
    std::vector<SigCell> cells;   //!< Flip cells, sorted by index.
    std::vector<uint32_t> extras; //!< Extra cells present, sorted.
    double dropout = 0.0;
    double marginal = 0.0;
};

SigPopulation
sigPopulation(const SigPufParams &params, const SimulatedChip &chip,
              const Challenge &challenge, const QueryEnv &env)
{
    const double dt = std::max(0.0, env.temperature_c - 30.0);
    SigPopulation pop;
    pop.cells = chip.sigCells(challenge.segment_id, challenge.segment_bits);
    pop.dropout = params.temp_dropout_at_55c * (dt / 55.0) +
                  (env.aged ? params.aging_dropout : 0.0);
    pop.marginal = chip.spec().ddr3l ? params.ddr3l_marginal_fraction
                                     : params.marginal_fraction;
    // Deterministic per-cell appearance of extra cells at temperature.
    const double growth = params.temp_growth_at_55c * (dt / 55.0);
    if (growth > 0.0) {
        for (const auto &cell : chip.sigExtraCells(
                 challenge.segment_id, challenge.segment_bits)) {
            if (cell.temp_u < growth * 12.5)
                pop.extras.push_back(cell.index);
        }
    }
    return pop;
}

/** One query pass: add a vote to every flip cell the pass reports. */
void
votePass(const SigPopulation &pop, const SimulatedChip &chip,
         uint64_t nonce, std::vector<int> &votes)
{
    // Per-query noise stream (thermal noise on marginal cells).
    Rng noise = chip.domainRng(0x51F, nonce ^ 0x9e37);
    for (size_t k = 0; k < pop.cells.size(); ++k) {
        const SigCell &cell = pop.cells[k];
        // Deterministic per-cell temperature dropout: the same cells
        // disappear at the same temperature on every query.
        if (cell.temp_u < pop.dropout)
            continue;
        // Marginal cells flicker with per-query noise.
        if (cell.stability < pop.marginal && noise.chance(0.5))
            continue;
        ++votes[k];
    }
}

/** The cells a strict majority of `passes` passes reported. */
Response
majority(const SigPopulation &pop, const std::vector<int> &votes,
         int passes)
{
    std::vector<uint32_t> won;
    for (size_t k = 0; k < pop.cells.size(); ++k)
        if (votes[k] * 2 > passes)
            won.push_back(pop.cells[k].index);
    // Extra cells are reported by every pass, so they hold a majority
    // whenever a pass ran.
    if (passes < 1 || pop.extras.empty())
        return Response{std::move(won)};
    Response r;
    std::set_union(won.begin(), won.end(), pop.extras.begin(),
                   pop.extras.end(), std::back_inserter(r.cells));
    return r;
}

} // namespace

CodicSigPuf::CodicSigPuf(const SigPufParams &params) : params_(params)
{
}

Response
CodicSigPuf::evaluate(const SimulatedChip &chip,
                      const Challenge &challenge,
                      const QueryEnv &env) const
{
    const SigPopulation pop = sigPopulation(params_, chip, challenge, env);
    std::vector<int> votes(pop.cells.size(), 0);
    votePass(pop, chip, env.nonce, votes);
    return majority(pop, votes, 1);
}

Response
CodicSigPuf::evaluateFiltered(const SimulatedChip &chip,
                              const Challenge &challenge,
                              const QueryEnv &env) const
{
    // Conservative filter (Section 6.1.1): evaluate the challenge
    // filter_challenges times and keep cells appearing in a majority.
    const SigPopulation pop = sigPopulation(params_, chip, challenge, env);
    std::vector<int> votes(pop.cells.size(), 0);
    for (int i = 0; i < params_.filter_challenges; ++i)
        votePass(pop, chip,
                 env.nonce * 1000003ULL + static_cast<uint64_t>(i) + 1,
                 votes);
    return majority(pop, votes, params_.filter_challenges);
}

int
CodicSigPuf::passesPerEvaluation(bool filtered) const
{
    return filtered ? params_.filter_challenges : 1;
}

} // namespace codic
