/**
 * @file
 * The codic_run command line. One table defines every flag: its name,
 * metavar, one-line help and a setter into RunOptions or the run
 * selection. Parsing, the --help text and cliFlagNames() all read
 * that table. RunOptions::validate() owns the value bounds; a row
 * carries its own lower bound only where the CLI is stricter (an
 * explicit --devices 0 means nothing, although the field's 0 is the
 * scenario-default sentinel).
 */

#ifndef CODIC_SCENARIO_CLI_H
#define CODIC_SCENARIO_CLI_H

#include <string>
#include <vector>

#include "common/run_options.h"

namespace codic {

/** A parsed codic_run command line. */
struct CliRequest
{
    /** What the command line asks for. */
    enum class Mode
    {
        Run,   //!< Run `scenarios` with `options`.
        Print, //!< Print `text` on stdout and exit.
        Usage, //!< Print `text` (the --help table) on stderr and exit.
    };
    Mode mode = Mode::Run;
    std::string text;

    RunOptions options;
    /** The selection, resolved (--all, a bare --trace) and checked. */
    std::vector<std::string> scenarios;
    bool all = false;  //!< --all, folded into `scenarios`.
    bool list = false; //!< --list, answered once parsing ends.
    bool quiet = false;
    std::string out_path;
    std::string csv_path;
};

/**
 * Parse a codic_run argv. Parsing stops at the first flag that
 * answers by itself (--help, --list-md, --preset list, --sched help,
 * --trace-info). Otherwise the selection is resolved and the options
 * are validate()d here, so a rejected command line never opens an
 * output file.
 * @throws FatalError on an unknown flag, a missing or malformed value
 *         (the message names the flag), an unknown scenario, --sched
 *         spec or --preset grade, or an out-of-contract RunOptions.
 */
CliRequest parseCommandLine(int argc, const char *const *argv);

/** Every flag name, in table order. */
std::vector<std::string> cliFlagNames();

/** The --help text: one entry per flag-table row. */
std::string cliUsage();

} // namespace codic

#endif // CODIC_SCENARIO_CLI_H
