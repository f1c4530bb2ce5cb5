#include "scenario/cli.h"

#include <algorithm>
#include <iterator>

#include "common/logging.h"
#include "common/option_table.h"
#include "dram/config.h"
#include "scenario/registry.h"
#include "trace/trace_io.h"

namespace codic {

namespace {

/** One flag's value; a parse error names the flag. */
struct FlagValue
{
    const char *flag;
    const char *text; //!< nullptr for a switch.

    /** Parse the whole value into `field`, at least `min`. */
    template <typename T>
    void into(T &field, std::type_identity_t<T> min =
                            std::numeric_limits<T>::lowest()) const
    {
        if (!parseWhole(text, field))
            fatal(flag, " needs ",
                  std::is_floating_point_v<T> ? "a finite number"
                  : std::is_signed_v<T>       ? "an integer (in range)"
                                        : "an unsigned integer (in range)",
                  ", got '", text, "'");
        if (field < min)
            fatal(flag, " must be >= ", min, ", got ", text);
    }
};

/** One codic_run flag. */
struct Flag
{
    const char *name;
    const char *metavar; //!< nullptr: a switch taking no value.
    const char *help;
    void (*set)(CliRequest &, const FlagValue &);
    const char *alias = nullptr;
};

/**
 * The registered scenarios grouped by name prefix: the --list text,
 * or the markdown catalog of --list-md (CI regenerates
 * docs/SCENARIOS.md from it and fails on any diff).
 */
std::string
scenarioList(bool markdown)
{
    const auto scenarios = ScenarioRegistry::instance().scenarios();
    const std::string count = std::to_string(scenarios.size());
    std::string out =
        markdown
            ? "# Scenario catalog\n\n<!-- Generated by `codic_run "
              "--list-md`. Do not edit by hand: CI\n     regenerates "
              "this file and fails on any diff. -->\n\n" +
                  count +
                  " registered scenarios. Run one with `codic_run "
                  "--scenario NAME`\n(repeatable), or everything with "
                  "`codic_run --all`. See\n[CLI.md](CLI.md) for the "
                  "full flag reference and\n[SCHEDULING.md]"
                  "(SCHEDULING.md) for the `--sched` policy presets.\n"
            : count + " registered scenarios:\n";
    size_t width = 0;
    for (const Scenario *s : scenarios)
        width = std::max(width, s->name().size());
    // scenarios() is name-sorted, so each prefix group is contiguous.
    std::string group;
    for (const Scenario *s : scenarios) {
        const std::string name = s->name();
        if (name.substr(0, name.find('_')) != group) {
            group = name.substr(0, name.find('_'));
            out += markdown ? "\n## " + group +
                                  "\n\n| scenario | description |\n"
                                  "| --- | --- |\n"
                            : "\n" + group + ":\n";
        }
        out += markdown ? "| `" + name + "` | " + s->describe() + " |\n"
                        : "  " + name +
                              std::string(width - name.size() + 2, ' ') +
                              s->describe() + "\n";
    }
    return out;
}

/** Answer the command line with `text` instead of a run. */
void
answer(CliRequest &r, std::string text,
       CliRequest::Mode mode = CliRequest::Mode::Print)
{
    r.mode = mode;
    r.text = std::move(text);
}

/** `list` or `help`: the --preset/--sched values that print names. */
bool
isListRequest(const std::string &value)
{
    return value == "list" || value == "help";
}

const Flag kFlags[] = {
    {"--list", nullptr, "List registered scenarios by group and exit",
     [](auto &r, auto &) { r.list = true; }},
    {"--list-md", nullptr, "Print the markdown scenario catalog and exit",
     [](auto &r, auto &) { answer(r, scenarioList(true)); }},
    {"--scenario", "NAME", "Run one scenario (repeatable)",
     [](auto &r, auto &v) { r.scenarios.push_back(v.text); }},
    {"--all", nullptr, "Run every registered scenario",
     [](auto &r, auto &) { r.all = true; }},
    {"--seed", "N", "Campaign seed (default 1: the paper seeds)",
     [](auto &r, auto &v) { v.into(r.options.seed); }},
    {"--threads", "N", "CampaignEngine threads (0 = auto-detect)",
     [](auto &r, auto &v) { v.into(r.options.threads); }},
    {"--channels", "N", "DramConfig override: channel count",
     [](auto &r, auto &v) { v.into(r.options.channels); }},
    {"--capacity-mb", "N", "DramConfig override: module capacity",
     [](auto &r, auto &v) { v.into(r.options.capacity_mb); }},
    {"--scale", "F", "Work-scale factor in (0, 1] (default 1)",
     [](auto &r, auto &v) { v.into(r.options.scale); }},
    {"--repeats", "N", "Repeat each scenario N times (seed, seed+1, ...)",
     [](auto &r, auto &v) { v.into(r.options.repeats); }},
    {"--devices", "N", "Fleet population size",
     [](auto &r, auto &v) { v.into(r.options.devices, 1); }},
    {"--shards", "N", "Fleet shard count (execution parameter)",
     [](auto &r, auto &v) { v.into(r.options.shards, 1); }},
    {"--requests", "N", "Fleet request-stream length",
     [](auto &r, auto &v) { v.into(r.options.requests, 1); }},
    {"--zipf", "F", "Fleet device-popularity Zipf exponent (0 = uniform)",
     [](auto &r, auto &v) { v.into(r.options.zipf, 0); }},
    {"--store", "FILE", "Fleet enrollment-store file",
     [](auto &r, auto &v) { r.options.store_path = v.text; }},
    {"--store-mmap", nullptr, "Serve --store from a read-only mapping",
     [](auto &r, auto &) { r.options.store_mmap = true; }},
    {"--regions", "N", "Serving regions of the multi-region scenarios",
     [](auto &r, auto &v) { v.into(r.options.regions, 1); }},
    {"--shed", "RPS", "Admission capacity in requests/s (0 = off)",
     [](auto &r, auto &v) { v.into(r.options.shed, 0); }},
    {"--preset", "NAME", "DRAM speed grade (`list` prints the grades)",
     [](auto &r, auto &v) {
         if (isListRequest(v.text)) {
             std::string names;
             for (const auto &name : DramConfig::presetNames())
                 names += name + "\n";
             return answer(r, names);
         }
         DramConfig::preset(v.text, 64); // Resolves the grade now.
         r.options.dram_preset = v.text;
     }},
    {"--sched", "SPEC", "Scheduler preset[:knob=value,...] (`help` lists)",
     [](auto &r, auto &v) {
         if (isListRequest(v.text))
             return answer(r, SchedulerPolicy::describeKnobs());
         SchedulerPolicy::parse(v.text); // Resolves the spec now.
         r.options.sched = v.text;
     }},
    {"--trace", "FILE", "Input trace (alone: implies trace_replay)",
     [](auto &r, auto &v) { r.options.trace_path = v.text; }},
    {"--trace-speed", "F", "Replay inter-arrival rescale (> 1 compresses)",
     [](auto &r, auto &v) { v.into(r.options.trace_speed); }},
    {"--ambient", "F", "Thermal-loop ambient temperature in C (default 30)",
     [](auto &r, auto &v) { v.into(r.options.ambient_c); }},
    {"--epoch-us", "F", "Thermal/co-sim epoch length in microseconds",
     [](auto &r, auto &v) {
         v.into(r.options.epoch_us);
         if (r.options.epoch_us <= 0)
             fatal(v.flag, " must be > 0, got ", v.text);
     }},
    {"--cores", "N", "Core count for multicore_contention",
     [](auto &r, auto &v) { v.into(r.options.cores, 1); }},
    {"--record-trace", "FILE", "Record every DramSystem transaction",
     [](auto &r, auto &v) { r.options.record_trace = v.text; }},
    {"--trace-info", "FILE", "Print a trace file's header summary and exit",
     [](auto &r, auto &v) { answer(r, TraceReader(v.text).describe()); }},
    {"--out", "FILE", "Write JSON results (- = stdout)",
     [](auto &r, auto &v) { r.out_path = v.text; }},
    {"--csv", "FILE", "Write long-format CSV results (- = stdout)",
     [](auto &r, auto &v) { r.csv_path = v.text; }},
    {"--timings", nullptr, "Include wall-clock values in JSON/CSV",
     [](auto &r, auto &) { r.options.emit_timings = true; }},
    {"--quiet", nullptr, "Suppress the human-readable text report",
     [](auto &r, auto &) { r.quiet = true; }},
    {"--help", nullptr, "Print this flag table and exit",
     [](auto &r, auto &) {
         answer(r, cliUsage(), CliRequest::Mode::Usage);
     },
     "-h"},
};

} // namespace

CliRequest
parseCommandLine(int argc, const char *const *argv)
{
    CliRequest r;
    for (int i = 1; i < argc && r.mode == CliRequest::Mode::Run; ++i) {
        const std::string arg = argv[i];
        const Flag *flag = std::find_if(
            std::begin(kFlags), std::end(kFlags), [&](const Flag &f) {
                return arg == f.name || (f.alias && arg == f.alias);
            });
        if (flag == std::end(kFlags))
            fatal("unknown argument '", arg,
                  "' (codic_run --help lists the flags)");
        if (flag->metavar && i + 1 >= argc)
            fatal(flag->name, " needs a value");
        flag->set(r, {flag->name, flag->metavar ? argv[++i] : nullptr});
    }
    if (r.mode != CliRequest::Mode::Run)
        return r;
    if (r.list) {
        answer(r, scenarioList(false));
        return r;
    }

    const auto &registry = ScenarioRegistry::instance();
    if (r.all)
        r.scenarios = registry.names();
    // A bare `codic_run --trace FILE` means "replay this".
    if (r.scenarios.empty() && !r.options.trace_path.empty())
        r.scenarios.push_back("trace_replay");
    if (r.scenarios.empty())
        fatal("nothing to run (use --scenario, --all, or --list)");
    for (const auto &name : r.scenarios)
        if (!registry.find(name))
            fatal("unknown scenario '", name, "'; ", scenarioList(false));
    r.options.validate();
    return r;
}

std::vector<std::string>
cliFlagNames()
{
    return rowNames(kFlags);
}

std::string
cliUsage()
{
    std::string out = "usage: codic_run [FLAG [VALUE]]...\n"
                      "Runs the selected scenarios, or answers one "
                      "reference flag and exits.\n\n";
    for (const Flag &f : kFlags) {
        std::string label = f.name;
        if (f.metavar)
            label += std::string(" ") + f.metavar;
        if (f.alias)
            label += std::string(", ") + f.alias;
        out += helpEntry(label, f.help, 19);
    }
    return out;
}

} // namespace codic
