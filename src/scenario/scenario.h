/**
 * @file
 * The unified Scenario API: every paper figure/table campaign and
 * every ablation/extension study is a named Scenario that runs with
 * shared RunOptions and reports structured rows through a
 * ResultSink. `codic_run --scenario <name>` is the one way to run
 * any paper artifact or study; the examples and tools drive the same
 * registry.
 *
 * Determinism: a scenario's structured (non-timing) output must be a
 * pure function of (seed, scale) - in particular independent of
 * RunOptions::threads. The test suite asserts byte-identical JSON at
 * 1 vs 8 threads for every registered scenario.
 */

#ifndef CODIC_SCENARIO_SCENARIO_H
#define CODIC_SCENARIO_SCENARIO_H

#include <functional>
#include <memory>
#include <string>

#include "common/result_sink.h"
#include "common/run_options.h"

namespace codic {

/** Everything a scenario needs while running. */
class RunContext
{
  public:
    RunContext(const RunOptions &options, ResultSink &sink)
        : options_(options), sink_(sink)
    {
    }

    const RunOptions &options() const { return options_; }

    /** Emit one result row into a named section. */
    void row(const std::string &section, const ResultRow &r)
    {
        sink_.row(section, r);
    }

    /** Emit one commentary line. */
    void note(const std::string &text) { sink_.note(text); }

    /** Scale a nominal trial count (see RunOptions::scaled). */
    size_t scaled(size_t nominal) const
    {
        return options_.scaled(nominal);
    }

    ResultSink &sink() { return sink_; }

  private:
    const RunOptions &options_;
    ResultSink &sink_;
};

/** One registered evaluation scenario. */
class Scenario
{
  public:
    virtual ~Scenario() = default;

    /** Stable registry key, e.g. "puf_fig5_jaccard". */
    virtual std::string name() const = 0;

    /** One-line human description (shown by `codic_run --list`). */
    virtual std::string describe() const = 0;

    /** Execute and report through ctx (never prints directly). */
    virtual void run(RunContext &ctx) const = 0;
};

/** Build a Scenario from a name, description, and run function. */
std::unique_ptr<Scenario>
makeScenario(std::string name, std::string describe,
             std::function<void(RunContext &)> fn);

} // namespace codic

#endif // CODIC_SCENARIO_SCENARIO_H
