/**
 * @file
 * codic_run - the single driver over the scenario registry and the
 * canonical way to reproduce the paper's figures and tables.
 *
 * `codic_run --help` prints the flag table (src/scenario/cli.cc);
 * docs/CLI.md is the reference.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result_sink.h"
#include "scenario/cli.h"
#include "scenario/registry.h"
#include "trace/recorder.h"

namespace {

using namespace codic;

/** Open a machine sink's stream: `path`, or stdout for "-". */
std::ostream &
openOutput(const std::string &path, std::ofstream &file)
{
    if (path == "-")
        return std::cout;
    file.open(path);
    if (!file)
        fatal("cannot open '", path, "' for writing");
    return file;
}

/**
 * Run a validated request. A failing scenario does not abort the
 * run: the rest still run, and a per-scenario summary ends it with
 * exit code 1.
 */
int
run(const CliRequest &request)
{
    const RunOptions &options = request.options;
    MultiResultSink sink;
    std::unique_ptr<TextResultSink> text;
    // A machine sink on stdout would interleave with the text report.
    if (!request.quiet && request.out_path != "-" &&
        request.csv_path != "-") {
        text = std::make_unique<TextResultSink>(std::cout);
        sink.addSink(text.get());
    }
    std::ofstream out_file;
    std::unique_ptr<JsonResultSink> json;
    if (!request.out_path.empty()) {
        json = std::make_unique<JsonResultSink>(
            openOutput(request.out_path, out_file));
        sink.addSink(json.get());
    }
    std::ofstream csv_file;
    std::unique_ptr<CsvResultSink> csv;
    if (!request.csv_path.empty()) {
        csv = std::make_unique<CsvResultSink>(
            openOutput(request.csv_path, csv_file));
        sink.addSink(csv.get());
    }
    if (!options.record_trace.empty()) {
        TraceMeta meta;
        for (const auto &name : request.scenarios)
            meta.scenario += (meta.scenario.empty() ? "" : ",") + name;
        meta.seed = options.seed;
        TraceRecorder::start(options.record_trace, meta);
    }

    std::vector<std::pair<std::string, std::string>> failures;
    for (int repeat = 0; repeat < options.repeats; ++repeat) {
        RunOptions repeat_options = options;
        repeat_options.seed =
            options.seed + static_cast<uint64_t>(repeat);
        for (const auto &name : request.scenarios) {
            try {
                runScenario(name, repeat_options, sink);
            } catch (const std::exception &e) {
                failures.push_back({name, e.what()});
                std::fprintf(stderr,
                             "codic_run: scenario '%s' failed: %s\n",
                             name.c_str(), e.what());
            }
        }
    }

    if (!options.record_trace.empty()) {
        const uint64_t recorded = TraceRecorder::stop();
        std::fprintf(stderr,
                     "codic_run: recorded %llu transactions to %s\n",
                     static_cast<unsigned long long>(recorded),
                     options.record_trace.c_str());
    }

    if (json)
        json->finish();
    if (failures.empty())
        return 0;
    std::fprintf(stderr, "codic_run: %zu of %zu scenario run(s) failed:\n",
                 failures.size(),
                 request.scenarios.size() *
                     static_cast<size_t>(options.repeats));
    for (const auto &[scenario, message] : failures)
        std::fprintf(stderr, "  %s: %s\n", scenario.c_str(),
                     message.c_str());
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    // Every rejection - a bad flag, an unknown scenario, an
    // out-of-contract option, an unopenable output - exits 2 here.
    // parseCommandLine() rejects everything it can before run()
    // opens any output file.
    try {
        const CliRequest request = parseCommandLine(argc, argv);
        switch (request.mode) {
          case CliRequest::Mode::Print:
            std::fputs(request.text.c_str(), stdout);
            return 0;
          case CliRequest::Mode::Usage:
            std::fputs(request.text.c_str(), stderr);
            return 0;
          case CliRequest::Mode::Run:
            break;
        }
        return run(request);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "codic_run: %s\n", e.what());
        return 2;
    }
}
