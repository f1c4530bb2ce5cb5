#include "puf/prelat_puf.h"

#include <algorithm>

namespace codic {

namespace {

/**
 * The deterministic part of one PreLatPUF query: the segment's weak
 * columns and the temperature/aging dropout. Every pass of the
 * majority filter shares it; only the per-pass noise differs.
 */
struct PrelatPopulation
{
    std::vector<PrelatColumn> columns; //!< Sorted by index.
    double dropout = 0.0;
};

PrelatPopulation
prelatPopulation(const PrelatPufParams &params, const SimulatedChip &chip,
                 const Challenge &challenge, const QueryEnv &env)
{
    const double dt = std::max(0.0, env.temperature_c - 30.0);
    PrelatPopulation pop;
    pop.columns =
        chip.prelatColumns(challenge.segment_id, challenge.segment_bits);
    pop.dropout = params.temp_dropout_at_55c * (dt / 55.0) +
                  (env.aged ? 0.004 : 0.0);
    return pop;
}

/** One query pass: add a vote to every column the pass reports. */
void
votePass(const PrelatPufParams &params, const PrelatPopulation &pop,
         const SimulatedChip &chip, uint64_t nonce,
         std::vector<int> &votes)
{
    Rng noise = chip.domainRng(0x9E1, nonce ^ 0x1357);
    for (size_t k = 0; k < pop.columns.size(); ++k) {
        const PrelatColumn &col = pop.columns[k];
        // Deterministic tiny temperature perturbation.
        if (col.stability < pop.dropout)
            continue;
        // Marginal columns flicker per query.
        if (col.stability < params.marginal_fraction && noise.chance(0.5))
            continue;
        ++votes[k];
    }
}

/** The columns a strict majority of `passes` passes reported. */
Response
majority(const PrelatPopulation &pop, const std::vector<int> &votes,
         int passes)
{
    Response r;
    for (size_t k = 0; k < pop.columns.size(); ++k)
        if (votes[k] * 2 > passes)
            r.cells.push_back(pop.columns[k].index);
    return r;
}

} // namespace

PrelatPuf::PrelatPuf(const PrelatPufParams &params) : params_(params)
{
}

Response
PrelatPuf::evaluate(const SimulatedChip &chip, const Challenge &challenge,
                    const QueryEnv &env) const
{
    const PrelatPopulation pop =
        prelatPopulation(params_, chip, challenge, env);
    std::vector<int> votes(pop.columns.size(), 0);
    votePass(params_, pop, chip, env.nonce, votes);
    return majority(pop, votes, 1);
}

Response
PrelatPuf::evaluateFiltered(const SimulatedChip &chip,
                            const Challenge &challenge,
                            const QueryEnv &env) const
{
    const PrelatPopulation pop =
        prelatPopulation(params_, chip, challenge, env);
    std::vector<int> votes(pop.columns.size(), 0);
    for (int i = 0; i < params_.filter_challenges; ++i)
        votePass(params_, pop, chip,
                 env.nonce * 1000033ULL + static_cast<uint64_t>(i) + 1,
                 votes);
    return majority(pop, votes, params_.filter_challenges);
}

int
PrelatPuf::passesPerEvaluation(bool filtered) const
{
    return filtered ? params_.filter_challenges : 1;
}

} // namespace codic
