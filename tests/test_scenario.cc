/**
 * @file
 * Tests of the unified Scenario API: registry integrity, clean
 * unknown-name failure, structured-sink behavior, scenario rows
 * pinned to captured values, and the determinism golden test -
 * every registered scenario's JSON output is byte-identical for a
 * fixed seed at 1 vs 8 campaign threads.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/result_sink.h"
#include "scenario/registry.h"

namespace codic {
namespace {

// --- Registry integrity. ---

TEST(ScenarioRegistry, ListsEveryScenarioExactlyOnce)
{
    const auto names = ScenarioRegistry::instance().names();
    const std::set<std::string> unique(names.begin(), names.end());
    EXPECT_EQ(unique.size(), names.size())
        << "duplicate scenario names registered";
    EXPECT_GE(names.size(), 15u);
}

TEST(ScenarioRegistry, CoversEveryPaperArtifactServedByABench)
{
    // One registered scenario per paper figure/table that had a
    // dedicated bench binary before the Scenario API redesign.
    const char *required[] = {
        "circuit_fig2_waveforms",     "circuit_fig3_codic_waveforms",
        "circuit_table1_variants",    "circuit_table2_latency_energy",
        "circuit_table11_sigsa",      "circuit_ablation_granularity",
        "circuit_ablation_sig_opt",   "puf_fig5_jaccard",
        "puf_fig6_temperature",       "puf_aging",
        "puf_auth",                   "puf_coverage",
        "puf_table4_response_time",   "puf_ablation_filter",
        "puf_retention_methodology",  "coldboot_fig7_destruction",
        "coldboot_table6_overhead",   "secdealloc_fig8",
        "secdealloc_fig9",            "trng_characterization",
        "trng_table10_nist",          "ext_adaptive_act",
        "ext_pim",                    "ablation_bank_parallelism",
        "ablation_engine_parallelism", "ablation_scheduler",
        // Fleet subsystem (not paper artifacts, but part of the
        // stable scenario surface).
        "fleet_enroll",               "fleet_auth_load",
        "fleet_mixed",                "fleet_scaling",
        "fleet_overload",             "fleet_region_serving",
        // Trace subsystem (record/replay surface).
        "trace_replay",               "trace_filter_ablation",
        "trace_vs_synthetic",
        // Co-simulation / thermal subsystem (TickEngine surface).
        "thermal_feedback",           "thermal_throttling",
        "multicore_contention",
    };
    auto &registry = ScenarioRegistry::instance();
    for (const char *name : required) {
        const Scenario *s = registry.find(name);
        ASSERT_NE(s, nullptr) << "missing scenario " << name;
        EXPECT_EQ(s->name(), name);
        EXPECT_FALSE(s->describe().empty());
    }
}

TEST(ScenarioRegistry, UnknownNameFailsCleanly)
{
    EXPECT_EQ(ScenarioRegistry::instance().find("no_such_scenario"),
              nullptr);

    RunOptions options;
    std::ostringstream out;
    JsonResultSink sink(out);
    EXPECT_FALSE(runScenario("no_such_scenario", options, sink));
    sink.finish();
    // The sink must be untouched apart from the empty array.
    EXPECT_EQ(out.str(), "[]\n");
}

// --- Structured sinks. ---

TEST(ResultSinks, JsonTimingValuesFollowEmitTimings)
{
    RunOptions options;
    ResultRow row;
    row.add("value", 3).addTiming("wall_ms", 1.5);

    std::ostringstream silent;
    {
        JsonResultSink sink(silent);
        sink.beginScenario("s", "d", options);
        sink.row("sec", row);
        sink.endScenario();
        sink.finish();
    }
    EXPECT_EQ(silent.str().find("wall_ms"), std::string::npos);

    options.emit_timings = true;
    std::ostringstream timed;
    {
        JsonResultSink sink(timed);
        sink.beginScenario("s", "d", options);
        sink.row("sec", row);
        sink.endScenario();
        sink.finish();
    }
    EXPECT_NE(timed.str().find("wall_ms"), std::string::npos);
}

TEST(ResultSinks, CsvEmitsLongFormatRows)
{
    RunOptions options;
    std::ostringstream out;
    CsvResultSink sink(out);
    sink.beginScenario("scn", "d", options);
    sink.row("sec", ResultRow().add("k", std::string("v, with comma")));
    sink.endScenario();
    EXPECT_NE(out.str().find("scenario,seed,section,row,key,value"),
              std::string::npos);
    EXPECT_NE(out.str().find("scn,1,sec,0,k,\"v, with comma\""),
              std::string::npos);
}

// --- Pinned scenario rows. ---

/** Keeps the rows of one section, dropping everything else. */
class SectionRows : public ResultSink
{
  public:
    explicit SectionRows(std::string section)
        : section_(std::move(section))
    {
    }

    void beginScenario(const std::string &, const std::string &,
                       const RunOptions &) override
    {
    }
    void row(const std::string &section, const ResultRow &r) override
    {
        if (section == section_)
            rows.push_back(r);
    }
    void note(const std::string &) override {}
    void endScenario() override {}

    std::vector<ResultRow> rows;

  private:
    std::string section_;
};

/** The value of `key` in `row` (a failed assertion when absent). */
const ResultValue &
cell(const ResultRow &row, const std::string &key)
{
    for (const auto &[k, v] : row.values())
        if (k == key)
            return v;
    ADD_FAILURE() << "no key " << key;
    static const ResultValue missing;
    return missing;
}

TEST(ScenarioPins, AblationQosPerOriginRows)
{
    // ablation_qos's per-origin rows at scale 0.1 (30 storm waves),
    // captured from the controller-side per-origin roll-up the
    // scenario once read: background origin 0 then urgent origin 1
    // for each scheduler variant.
    struct Pin
    {
        const char *sched;
        uint64_t origin, reads, writes, rowops;
        double read_mean_us, read_max_us;
    };
    const Pin pins[] = {
        {"batched_blind", 0, 360, 1440, 0, 0.53875, 0.595},
        {"batched_blind", 1, 30, 0, 0, 0.62375, 0.625},
        {"serving", 0, 360, 1440, 0, 1.30125, 1.42375},
        {"serving", 1, 30, 0, 0, 0.05, 0.11625},
        {"serving_refpb", 0, 360, 1440, 0, 1.29375, 1.35375},
        {"serving_refpb", 1, 30, 0, 0, 0.0425, 0.04625},
    };
    RunOptions options;
    options.scale = 0.1;
    options.threads = 1;
    SectionRows sink("per-origin accounting");
    ASSERT_TRUE(runScenario("ablation_qos", options, sink));
    ASSERT_EQ(sink.rows.size(), std::size(pins));
    for (size_t i = 0; i < std::size(pins); ++i) {
        const Pin &pin = pins[i];
        const ResultRow &row = sink.rows[i];
        SCOPED_TRACE(std::string(pin.sched) + " origin " +
                     std::to_string(pin.origin));
        EXPECT_EQ(cell(row, "sched").s, pin.sched);
        EXPECT_EQ(cell(row, "origin").u, pin.origin);
        EXPECT_EQ(cell(row, "reads").u, pin.reads);
        EXPECT_EQ(cell(row, "writes").u, pin.writes);
        EXPECT_EQ(cell(row, "rowops").u, pin.rowops);
        EXPECT_DOUBLE_EQ(cell(row, "read_mean_us").d, pin.read_mean_us);
        EXPECT_DOUBLE_EQ(cell(row, "read_max_us").d, pin.read_max_us);
    }
}

// --- Determinism golden test. ---

std::string
jsonFor(const std::string &name, int threads)
{
    RunOptions options;
    options.seed = 3;
    options.threads = threads;
    // Small campaigns keep the full sweep fast; determinism must
    // hold at any scale.
    options.scale = 0.01;
    options.emit_timings = false;

    std::ostringstream out;
    JsonResultSink sink(out);
    EXPECT_TRUE(runScenario(name, options, sink));
    sink.finish();
    return out.str();
}

TEST(ScenarioDeterminism, JsonByteIdenticalAt1Vs8Threads)
{
    for (const auto &name : ScenarioRegistry::instance().names()) {
        SCOPED_TRACE(name);
        const std::string sequential = jsonFor(name, 1);
        const std::string parallel = jsonFor(name, 8);
        EXPECT_EQ(sequential, parallel)
            << "scenario output depends on the thread count";
        EXPECT_NE(sequential.find("\"rows\":["), std::string::npos);
        // Repeat at the same thread count: seed-determinism.
        EXPECT_EQ(sequential, jsonFor(name, 1));
    }
}

} // namespace
} // namespace codic
