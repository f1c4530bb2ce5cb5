/**
 * @file
 * Tests of the codic_run flag table (scenario/cli.h): every row lands
 * a valid value in its field, malformed values are rejected with the
 * flag named, the CLI-only lower bounds and the RunOptions::validate()
 * bounds both hold, and docs/CLI.md and docs/SCHEDULING.md name every
 * flag, --sched preset and --sched knob.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <limits>
#include <set>
#include <sstream>

#include "common/logging.h"
#include "dram/config.h"
#include "scenario/cli.h"
#include "scenario/registry.h"

namespace codic {
namespace {

const char *const kScenario = "circuit_table2_latency_energy";

const std::string kTrace = std::string(CODIC_REPO_DIR) +
                           "/bench/traces/ablation_scheduler_seed1.trace";

/** parseCommandLine over `--scenario kScenario` followed by `args`. */
CliRequest
parse(const std::vector<std::string> &args)
{
    std::vector<const char *> argv = {"codic_run", "--scenario", kScenario};
    for (const auto &a : args)
        argv.push_back(a.c_str());
    return parseCommandLine(static_cast<int>(argv.size()), argv.data());
}

/** The FatalError message parse(args) throws, or "" when it accepts. */
std::string
rejection(const std::vector<std::string> &args)
{
    try {
        parse(args);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

/** How a flag's value is typed (what counts as malformed for it). */
enum class Kind { Switch, Text, Int32, Int64, Uint64, Real };

/** One table row under test: a valid command line and its effect. */
struct RowCase
{
    const char *flag;
    Kind kind;
    std::vector<std::string> args;
    std::function<bool(const CliRequest &)> landed;
};

std::vector<RowCase>
rowCases()
{
    using M = CliRequest::Mode;
    return {
        {"--list", Kind::Switch, {"--list"},
         [](const CliRequest &r) {
             return r.mode == M::Print &&
                    r.text.find("registered scenarios:") != std::string::npos;
         }},
        {"--list-md", Kind::Switch, {"--list-md"},
         [](const CliRequest &r) {
             return r.mode == M::Print &&
                    r.text.rfind("# Scenario catalog\n", 0) == 0;
         }},
        {"--scenario", Kind::Text, {"--scenario", "ablation_refresh"},
         [](const CliRequest &r) {
             return r.scenarios ==
                    std::vector<std::string>{kScenario, "ablation_refresh"};
         }},
        {"--all", Kind::Switch, {"--all"},
         [](const CliRequest &r) {
             return r.scenarios == ScenarioRegistry::instance().names();
         }},
        {"--seed", Kind::Uint64, {"--seed", "18446744073709551615"},
         [](const CliRequest &r) {
             return r.options.seed ==
                    std::numeric_limits<uint64_t>::max();
         }},
        {"--threads", Kind::Int32, {"--threads", "3"},
         [](const CliRequest &r) { return r.options.threads == 3; }},
        {"--channels", Kind::Int32, {"--channels", "2"},
         [](const CliRequest &r) { return r.options.channels == 2; }},
        {"--capacity-mb", Kind::Int64, {"--capacity-mb", "8589934592"},
         [](const CliRequest &r) {
             return r.options.capacity_mb == 8589934592;
         }},
        {"--scale", Kind::Real, {"--scale", "0.5"},
         [](const CliRequest &r) { return r.options.scale == 0.5; }},
        {"--repeats", Kind::Int32, {"--repeats", "2"},
         [](const CliRequest &r) { return r.options.repeats == 2; }},
        {"--devices", Kind::Int64, {"--devices", "5000000000"},
         [](const CliRequest &r) {
             return r.options.devices == 5000000000;
         }},
        {"--shards", Kind::Int32, {"--shards", "3"},
         [](const CliRequest &r) { return r.options.shards == 3; }},
        {"--requests", Kind::Int64, {"--requests", "11"},
         [](const CliRequest &r) { return r.options.requests == 11; }},
        {"--zipf", Kind::Real, {"--zipf", "0"},
         [](const CliRequest &r) { return r.options.zipf == 0.0; }},
        {"--store", Kind::Text, {"--store", "fleet.bin"},
         [](const CliRequest &r) {
             return r.options.store_path == "fleet.bin";
         }},
        {"--store-mmap", Kind::Switch,
         {"--store-mmap", "--store", "fleet.bin"},
         [](const CliRequest &r) { return r.options.store_mmap; }},
        {"--regions", Kind::Int32, {"--regions", "2"},
         [](const CliRequest &r) { return r.options.regions == 2; }},
        {"--shed", Kind::Real, {"--shed", "100.5"},
         [](const CliRequest &r) { return r.options.shed == 100.5; }},
        {"--preset", Kind::Text, {"--preset", "ddr4-2400"},
         [](const CliRequest &r) {
             return r.options.dram_preset == "ddr4-2400";
         }},
        {"--sched", Kind::Text, {"--sched", "batched:read_window=4"},
         [](const CliRequest &r) {
             return r.options.sched == "batched:read_window=4";
         }},
        {"--trace", Kind::Text, {"--trace", kTrace},
         [](const CliRequest &r) { return r.options.trace_path == kTrace; }},
        {"--trace-speed", Kind::Real, {"--trace-speed", "2.5"},
         [](const CliRequest &r) {
             return r.options.trace_speed == 2.5;
         }},
        {"--ambient", Kind::Real, {"--ambient", "-40"},
         [](const CliRequest &r) { return r.options.ambient_c == -40.0; }},
        {"--epoch-us", Kind::Real, {"--epoch-us", "50"},
         [](const CliRequest &r) { return r.options.epoch_us == 50.0; }},
        {"--cores", Kind::Int32, {"--cores", "4"},
         [](const CliRequest &r) { return r.options.cores == 4; }},
        {"--record-trace", Kind::Text, {"--record-trace", "rec.trace"},
         [](const CliRequest &r) {
             return r.options.record_trace == "rec.trace";
         }},
        {"--trace-info", Kind::Text, {"--trace-info", kTrace},
         [](const CliRequest &r) {
             return r.mode == M::Print &&
                    r.text.find("format_version") != std::string::npos;
         }},
        {"--out", Kind::Text, {"--out", "r.json"},
         [](const CliRequest &r) { return r.out_path == "r.json"; }},
        {"--csv", Kind::Text, {"--csv", "-"},
         [](const CliRequest &r) { return r.csv_path == "-"; }},
        {"--timings", Kind::Switch, {"--timings"},
         [](const CliRequest &r) { return r.options.emit_timings; }},
        {"--quiet", Kind::Switch, {"--quiet"},
         [](const CliRequest &r) { return r.quiet; }},
        {"--help", Kind::Switch, {"--help"},
         [](const CliRequest &r) {
             return r.mode == M::Usage && r.text == cliUsage();
         }},
    };
}

TEST(Cli, EveryTableRowIsCovered)
{
    std::vector<std::string> tested;
    for (const RowCase &c : rowCases())
        tested.push_back(c.flag);
    EXPECT_EQ(tested, cliFlagNames());
}

TEST(Cli, EveryRowLandsAValidValueInItsField)
{
    for (const RowCase &c : rowCases()) {
        SCOPED_TRACE(c.flag);
        const CliRequest r = parse(c.args);
        EXPECT_TRUE(c.landed(r));
    }
}

/** Values every flag of `kind` must reject, with the flag named. */
std::vector<std::string>
malformedValues(Kind kind)
{
    switch (kind) {
      case Kind::Int32:
        return {"", "abc", "1x", "2147483648", "-2147483649", "nan",
                "inf", "1.5"};
      case Kind::Int64:
        return {"", "abc", "1x", "9223372036854775808", "nan", "inf",
                "1.5"};
      case Kind::Uint64:
        return {"", "abc", "1x", "18446744073709551616", "-1", "+1",
                "nan", "inf"};
      case Kind::Real:
        return {"", "abc", "1x", "1e999", "nan", "inf", "-inf"};
      case Kind::Switch:
      case Kind::Text:
        break;
    }
    return {};
}

TEST(Cli, MalformedValuesAreRejectedNamingTheFlag)
{
    for (const RowCase &c : rowCases()) {
        for (const std::string &bad : malformedValues(c.kind)) {
            SCOPED_TRACE(std::string(c.flag) + " '" + bad + "'");
            const std::string message = rejection({c.flag, bad});
            EXPECT_NE(message.find(c.flag), std::string::npos) << message;
        }
    }
}

TEST(Cli, AMissingValueAtTheEndIsRejectedNamingTheFlag)
{
    for (const RowCase &c : rowCases()) {
        if (c.kind == Kind::Switch)
            continue;
        SCOPED_TRACE(c.flag);
        const std::string message = rejection({c.flag});
        EXPECT_NE(message.find(c.flag), std::string::npos) << message;
        EXPECT_NE(message.find("needs a value"), std::string::npos);
    }
}

TEST(Cli, CliOnlyLowerBoundsAreRejectedNamingTheFlag)
{
    // Stricter than RunOptions::validate(), whose 0 / -1 are the
    // scenario-default sentinels an explicit flag cannot ask for.
    const std::vector<std::vector<std::string>> cases = {
        {"--devices", "0"}, {"--shards", "0"},   {"--requests", "0"},
        {"--regions", "0"}, {"--cores", "0"},    {"--zipf", "-1"},
        {"--shed", "-1"},   {"--epoch-us", "0"},
    };
    for (const auto &args : cases) {
        SCOPED_TRACE(args[0] + " " + args[1]);
        const std::string message = rejection(args);
        EXPECT_NE(message.find(args[0]), std::string::npos) << message;
    }
}

TEST(Cli, ValidateOwnedBoundsAreRejected)
{
    const std::vector<std::vector<std::string>> cases = {
        {"--threads", "-1"},    {"--channels", "-1"},
        {"--capacity-mb", "-1"}, {"--scale", "0"},
        {"--scale", "1.5"},     {"--repeats", "0"},
        {"--trace-speed", "0"}, {"--ambient", "121"},
        {"--ambient", "-41"},   {"--store-mmap"},
        {"--trace", "no_such_file.trace"},
        {"--trace", kTrace, "--record-trace", kTrace},
    };
    for (const auto &args : cases) {
        SCOPED_TRACE(args[0]);
        EXPECT_NE(rejection(args).find("RunOptions"), std::string::npos);
    }
}

TEST(Cli, UnknownFlagsScenariosAndSpecsAreRejected)
{
    for (const char *arg : {"--bogus", "-x", "--Scenario", "scenario", ""})
        EXPECT_NE(rejection({arg}).find("unknown argument"),
                  std::string::npos)
            << arg;
    EXPECT_NE(rejection({"--scenario", "no_such_scenario"})
                  .find("unknown scenario"),
              std::string::npos);
    EXPECT_NE(rejection({"--sched", "bogus"}).find("scheduler preset"),
              std::string::npos);
    EXPECT_NE(rejection({"--preset", "ddr5-6400"}).find("DRAM preset"),
              std::string::npos);
    const char *nothing[] = {"codic_run", "--quiet"};
    EXPECT_THROW(parseCommandLine(2, nothing), FatalError);
}

TEST(Cli, ReferenceFlagsAnswerAndStopParsing)
{
    // Like the parent driver: what follows a reference flag is
    // never parsed.
    EXPECT_EQ(parse({"--help", "--bogus"}).mode, CliRequest::Mode::Usage);
    EXPECT_EQ(parse({"-h"}).mode, CliRequest::Mode::Usage);
    const CliRequest sched = parse({"--sched", "list", "--bogus"});
    EXPECT_EQ(sched.text, SchedulerPolicy::describeKnobs());
    EXPECT_EQ(parse({"--sched", "help"}).text, sched.text);
    const CliRequest grades = parse({"--preset", "help"});
    std::string names;
    for (const auto &n : DramConfig::presetNames())
        names += n + "\n";
    EXPECT_EQ(grades.text, names);
    // A bare --trace implies the replay scenario.
    const char *bare[] = {"codic_run", "--trace", kTrace.c_str()};
    EXPECT_EQ(parseCommandLine(3, bare).scenarios,
              std::vector<std::string>{"trace_replay"});
}

/** The whole text of a file under docs/. */
std::string
readDoc(const std::string &name)
{
    std::ifstream in(std::string(CODIC_REPO_DIR) + "/docs/" + name);
    EXPECT_TRUE(in.good()) << name;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

TEST(Cli, CliDocNamesEveryFlag)
{
    const std::string doc = readDoc("CLI.md");
    for (const std::string &flag : cliFlagNames())
        EXPECT_TRUE(doc.find("`" + flag + "`") != std::string::npos ||
                    doc.find("`" + flag + " ") != std::string::npos)
            << flag << " is missing from docs/CLI.md";
}

TEST(Cli, SchedulingDocNamesEveryPresetAndKnob)
{
    const std::string doc = readDoc("SCHEDULING.md");
    for (const std::string &preset : SchedulerPolicy::presetNames())
        EXPECT_NE(doc.find("`" + preset + "`"), std::string::npos)
            << preset << " is missing from docs/SCHEDULING.md";
    // Knob entries of the --sched help are "  name=VALUE ...".
    const std::string help = SchedulerPolicy::describeKnobs();
    std::istringstream lines(help.substr(help.find("knob overrides")));
    std::set<std::string> knobs;
    for (std::string line; std::getline(lines, line);) {
        const size_t eq = line.find('=');
        if (line.rfind("  ", 0) == 0 && line[2] != ' ' &&
            eq != std::string::npos)
            knobs.insert(line.substr(2, eq - 2));
    }
    EXPECT_EQ(knobs.size(), 10u);
    for (const std::string &knob : knobs)
        EXPECT_NE(doc.find("`" + knob + "="), std::string::npos)
            << knob << " is missing from docs/SCHEDULING.md";
}

} // namespace
} // namespace codic
