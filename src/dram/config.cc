#include "dram/config.h"

#include <cmath>
#include <limits>
#include <sstream>

#include "common/logging.h"
#include "common/option_table.h"

namespace codic {

namespace {

/** One --sched preset: its name, its `--sched help` blurb, its policy. */
struct SchedPreset
{
    const char *name;
    const char *help;
    SchedulerPolicy policy;
};

/** The --sched presets, in documentation order. */
const SchedPreset kSchedPresets[] = {
    {"eager",
     "legacy policy pinning the paper numbers: every\n"
     "write issues at acceptance, strict arrival-order\n"
     "reads, serial fleet replay, refresh off",
     SchedulerPolicy{}},
    {"batched",
     "serving-stack default: 75/25 drain watermarks,\n"
     "16-deep row-hit drain batches, 8-deep replay\n"
     "slices, 8-wide read-reordering window",
     {.drain_high_pct = 75, .drain_low_pct = 25, .max_drain_batch = 16,
      .replay_batch = 8, .read_window = 8}},
    {"aggressive",
     "90/10 watermarks, 32-deep row-hit batches,\n"
     "16-deep replay slices, 16-wide read window,\n"
     "8/2 per-bank drain watermarks",
     {.drain_high_pct = 90, .drain_low_pct = 10, .max_drain_batch = 32,
      .replay_batch = 16, .read_window = 16, .bank_drain_high = 8,
      .bank_drain_low = 2}},
    // QoS preset for mixed fleet traffic: batched-style drains with
    // higher watermarks (writes buffer longer, so urgent reads see a
    // clear bus), a wide read window for priority selection to work
    // in, refresh on with mild postponement, and priority-aware
    // scheduling enabled.
    {"serving",
     "QoS preset for mixed fleet traffic: 85/35\n"
     "watermarks, 16-wide read window, 8/2 per-bank\n"
     "watermarks, refresh=auto with postpone 4, and\n"
     "priority=on (urgent reads preempt background\n"
     "traffic within the 16-bypass starvation bound)",
     {.drain_high_pct = 85, .drain_low_pct = 35, .max_drain_batch = 16,
      .replay_batch = 8, .read_window = 16, .bank_drain_high = 8,
      .bank_drain_low = 2, .auto_refresh = true, .refresh_postpone = 4,
      .priority_sched = true}},
};

/**
 * One --sched knob: an integer `field` with its valid range, or a
 * `choices` list ("a|b|c") whose matched index `choose` applies.
 */
struct SchedKnob
{
    const char *name;
    const char *help;
    int SchedulerPolicy::*field = nullptr;
    int min = 0;
    int max = std::numeric_limits<int>::max();
    const char *choices = nullptr;
    void (*choose)(SchedulerPolicy &, int choice) = nullptr;
};

/** The --sched knobs, in documentation order. */
const SchedKnob kSchedKnobs[] = {
    {"drain_high_pct",
     "write-queue % occupancy starting a drain\n"
     "episode (0 = drain at every write)",
     &SchedulerPolicy::drain_high_pct, 0, 100},
    {"drain_low_pct", "% occupancy where a drain episode stops",
     &SchedulerPolicy::drain_low_pct, 0, 100},
    {"max_drain_batch", "same-row writes coalesced per drain batch",
     &SchedulerPolicy::max_drain_batch, 1},
    {"replay_batch", "fleet shard requests replayed bank-parallel",
     &SchedulerPolicy::replay_batch, 1},
    {"read_window",
     "read-queue heads considered for row-hit\n"
     "bypass (1 = strict arrival order)",
     &SchedulerPolicy::read_window, 1},
    {"bank_drain_high",
     "per-bank pending writes triggering a\n"
     "bank-local drain (0 = disabled)",
     &SchedulerPolicy::bank_drain_high},
    {"bank_drain_low", "per-bank occupancy where that drain stops",
     &SchedulerPolicy::bank_drain_low},
    {.name = "refresh",
     .help = "controller-injected refresh: 'auto' = one\n"
             "all-bank REF per rank every tREFI;\n"
             "'per-bank' = REFpb every tREFIpb\n"
             "(tREFI/banks), round-robin over the banks,\n"
             "occupying only the target bank for tRFCpb",
     .choices = "off|auto|per-bank",
     .choose =
         [](SchedulerPolicy &p, int choice) {
             p.auto_refresh = choice != 0;
             p.per_bank_refresh = choice == 2;
         }},
    {"refresh_postpone",
     "due REFs deferrable while work is pending\n"
     "(JEDEC DDR3: at most 8)",
     &SchedulerPolicy::refresh_postpone, 0, 8},
    {.name = "priority",
     .help = "priority-aware scheduling: arrived requests\n"
             "of a more urgent class (lower\n"
             "MemTransaction::priority) are scheduled\n"
             "first within the read window, and urgent\n"
             "reads (priority < 0) jump between\n"
             "write-drain batches; head bypasses still\n"
             "age out after 16, bounding starvation",
     .choices = "off|on",
     .choose = [](SchedulerPolicy &p, int choice) {
         p.priority_sched = choice == 1;
     }},
};

/** Index of `value` in a "a|b|c" choice list, or -1. */
int
choiceIndex(const char *choices, const std::string &value)
{
    std::istringstream list(choices);
    std::string choice;
    for (int index = 0; std::getline(list, choice, '|'); ++index)
        if (choice == value)
            return index;
    return -1;
}

} // namespace

void
SchedulerPolicy::validate() const
{
    // Each integer knob's range lives in its table row; the rules
    // that relate two knobs follow.
    for (const SchedKnob &k : kSchedKnobs)
        if (k.field && (this->*k.field < k.min || this->*k.field > k.max))
            fatal("SchedulerPolicy: ", k.name, " must be in [", k.min,
                  ", ", k.max, "], got ", this->*k.field);
    if (drain_low_pct > drain_high_pct)
        fatal("SchedulerPolicy: drain_low_pct (", drain_low_pct,
              ") exceeds drain_high_pct (", drain_high_pct, ")");
    if (bank_drain_low > bank_drain_high)
        fatal("SchedulerPolicy: bank_drain_low (", bank_drain_low,
              ") exceeds bank_drain_high (", bank_drain_high,
              "); a drain episode could never stop - set low <= "
              "high");
    if (per_bank_refresh && !auto_refresh)
        fatal("SchedulerPolicy: per_bank_refresh requires "
              "auto_refresh; select it via refresh=per-bank (which "
              "turns both on) instead of combining refresh=off with "
              "per-bank mode");
}

SchedulerPolicy
SchedulerPolicy::preset(const std::string &name)
{
    if (const SchedPreset *p = findRow(kSchedPresets, name))
        return p->policy;
    std::string known;
    for (const auto &n : presetNames())
        known += " " + n;
    fatal("unknown scheduler preset '", name, "'; known presets:",
          known, " (run codic_run --sched help for the knob list)");
}

SchedulerPolicy
SchedulerPolicy::parse(const std::string &spec)
{
    const size_t colon = spec.find(':');
    SchedulerPolicy policy = preset(spec.substr(0, colon));
    // One knob=value item per comma after the ':'. The appended comma
    // ends the last item, so a stray comma yields an empty item
    // instead of being skipped.
    std::istringstream items(
        colon == std::string::npos ? "" : spec.substr(colon + 1) + ",");
    for (std::string item; std::getline(items, item, ',');) {
        const size_t eq = item.find('=');
        if (eq == std::string::npos || eq + 1 >= item.size())
            fatal("SchedulerPolicy: malformed knob override '", item,
                  "' in --sched spec '", spec,
                  "'; expected knob=value");
        const std::string key = item.substr(0, eq);
        const std::string value = item.substr(eq + 1);
        const SchedKnob *knob = findRow(kSchedKnobs, key);
        if (!knob)
            fatal("SchedulerPolicy: unknown knob '", key,
                  "' in --sched spec '", spec,
                  "' (run codic_run --sched help for the knob list)");
        if (knob->choices) {
            const int choice = choiceIndex(knob->choices, value);
            if (choice < 0)
                fatal("SchedulerPolicy: ", key, " must be one of ",
                      knob->choices, ", got '", value, "'");
            knob->choose(policy, choice);
            continue;
        }
        if (!parseWhole(value.c_str(), policy.*knob->field))
            fatal("SchedulerPolicy: knob '", key,
                  "' needs an integer value (in int range), got '",
                  value, "'");
    }
    policy.validate();
    return policy;
}

std::vector<std::string>
SchedulerPolicy::presetNames()
{
    return rowNames(kSchedPresets);
}

std::string
SchedulerPolicy::describeKnobs()
{
    std::string out =
        "scheduler presets (--sched NAME[:knob=value,...]):\n";
    for (const SchedPreset &p : kSchedPresets)
        out += helpEntry(p.name, p.help, 10);
    out += "\nknob overrides (appended as :knob=value,knob=value):\n";
    for (const SchedKnob &k : kSchedKnobs)
        out += helpEntry(std::string(k.name) + "=" +
                             (k.choices ? k.choices : "N"),
                         k.help, 18);
    return out + "\nexample: --sched batched:refresh=auto,"
                 "refresh_postpone=4\n";
}

int64_t
DramConfig::capacityBytes() const
{
    return static_cast<int64_t>(channels) * ranks * banks * rows *
           row_bytes;
}

int64_t
DramConfig::totalRows() const
{
    return static_cast<int64_t>(channels) * ranks * banks * rows;
}

Cycle
DramConfig::nsToCycles(double ns) const
{
    return static_cast<Cycle>(std::ceil(ns / tck_ns - 1e-9));
}

double
DramConfig::cyclesToNs(Cycle cycles) const
{
    return static_cast<double>(cycles) * tck_ns;
}

void
DramConfig::validate() const
{
    if (channels < 1)
        fatal("DramConfig '", name, "': channels must be >= 1, got ",
              channels);
    if (ranks < 1)
        fatal("DramConfig '", name, "': ranks must be >= 1, got ",
              ranks);
    if (banks < 1 || rows < 1 || columns < 1)
        fatal("DramConfig '", name, "': empty geometry (banks=", banks,
              " rows=", rows, " columns=", columns, ")");
    if (static_cast<int64_t>(columns) * burst_bytes != row_bytes)
        fatal("DramConfig '", name, "': columns * burst_bytes (",
              static_cast<int64_t>(columns) * burst_bytes,
              ") != row_bytes (", row_bytes, ")");
    if (tck_ns <= 0.0)
        fatal("DramConfig '", name, "': non-positive clock period");
    if (timing.trefi <= 0)
        fatal("DramConfig '", name, "': tREFI must be > 0 cycles, got ",
              timing.trefi, "; refresh-aware scheduling derives the "
              "REF cadence from it (DDR3-1600 default: 6240 = 7.8 us)");
    if (timing.trfc <= 0)
        fatal("DramConfig '", name, "': tRFC must be > 0 cycles, got ",
              timing.trfc, "; a REF must occupy the rank for a "
              "positive refresh cycle time (4 Gb DDR3 default: 208 = "
              "260 ns)");
    if (timing.trfcpb <= 0 || timing.trfcpb > timing.trfc)
        fatal("DramConfig '", name, "': tRFCpb must be in (0, tRFC], "
              "got ", timing.trfcpb, " (tRFC ", timing.trfc,
              "); a per-bank refresh is strictly cheaper than the "
              "all-bank REF of the same density class");
    if (scheduler.per_bank_refresh && timing.trefi / banks <= 0)
        fatal("DramConfig '", name, "': per-bank refresh needs "
              "tREFIpb = tREFI / banks >= 1 cycle, got tREFI ",
              timing.trefi, " over ", banks, " banks");
    scheduler.validate();
}

namespace {

/** tRFC by device density (JEDEC DDR3): ns. */
double
trfcNsForChipGb(double chip_gb)
{
    if (chip_gb <= 1.0)
        return 110.0;
    if (chip_gb <= 2.0)
        return 160.0;
    if (chip_gb <= 4.0)
        return 260.0;
    return 350.0;
}

void
sizeModule(DramConfig &cfg, int64_t capacity_mb, int channels,
           int ranks)
{
    CODIC_ASSERT(capacity_mb > 0);
    if (channels < 1 || ranks < 1)
        fatal("module geometry needs channels >= 1 and ranks >= 1");
    if (capacity_mb > (std::numeric_limits<int64_t>::max() >> 20))
        fatal("module capacity ", capacity_mb,
              " MB overflows a 64-bit byte count (at most ",
              std::numeric_limits<int64_t>::max() >> 20, " MB)");
    cfg.channels = channels;
    cfg.ranks = ranks;
    const int64_t capacity = capacity_mb * 1024 * 1024;
    const int64_t per_bank =
        capacity / (static_cast<int64_t>(channels) * ranks * cfg.banks);
    cfg.rows = per_bank / cfg.row_bytes;
    if (cfg.rows <= 0)
        fatal("module capacity ", capacity_mb,
              " MB too small for geometry");
    // A x8 module spreads a rank over 8 chips; chip density is
    // capacity / (channels * ranks * 8 chips).
    const double chip_gb = static_cast<double>(capacity) /
                           (static_cast<int64_t>(channels) * ranks * 8) /
                           (1 << 30) * 8.0;
    cfg.timing.trfc = cfg.nsToCycles(trfcNsForChipGb(chip_gb));
    // JEDEC per-bank grades pin tRFCpb at roughly half the all-bank
    // tRFC of the same density class.
    cfg.timing.trfcpb =
        cfg.nsToCycles(trfcNsForChipGb(chip_gb) * 0.5);
    cfg.validate();
}

} // namespace

DramConfig
DramConfig::ddr3_1600(int64_t capacity_mb, int channels, int ranks)
{
    DramConfig cfg;
    cfg.name = "DDR3-1600 11-11-11 x8 " + std::to_string(capacity_mb) +
               "MB";
    cfg.tck_ns = 1.25;
    sizeModule(cfg, capacity_mb, channels, ranks);
    return cfg;
}

DramConfig
DramConfig::ddr3_1333(int64_t capacity_mb, int channels, int ranks)
{
    DramConfig cfg;
    cfg.name = "DDR3-1333 9-9-9 x8 " + std::to_string(capacity_mb) + "MB";
    cfg.tck_ns = 1.5;
    TimingParams &t = cfg.timing;
    t.trcd = t.trp = t.tcl = 9;
    t.tcwl = 7;
    t.tras = cfg.nsToCycles(36.0);
    t.trc = t.tras + t.trp;
    t.trrd = cfg.nsToCycles(6.0);
    t.tfaw = cfg.nsToCycles(30.0);
    t.twr = cfg.nsToCycles(15.0);
    t.trtp = cfg.nsToCycles(7.5);
    t.trefi = cfg.nsToCycles(7800.0);
    sizeModule(cfg, capacity_mb, channels, ranks);
    return cfg;
}

namespace {

/**
 * A DDR4 x8 grade: CAS/CWL/tCCD at the grade's clock, 16 banks per
 * rank, and the analog timings that JEDEC specifies in nanoseconds
 * (so their cycle counts derive from the grade's clock, exactly like
 * ddr3_1333). tRRD/tWTR/tCCD use the same-bank-group (_L) values -
 * the channel model does not track bank groups, and the _L values are
 * the conservative legal bound for any bank pair.
 */
DramConfig
ddr4Module(const std::string &grade, double tck_ns, Cycle cl, Cycle cwl,
           Cycle ccd, int64_t capacity_mb, int channels, int ranks)
{
    DramConfig cfg;
    cfg.name = grade + " x8 " + std::to_string(capacity_mb) + "MB";
    cfg.tck_ns = tck_ns;
    TimingParams &t = cfg.timing;
    t.trcd = t.trp = t.tcl = cl;
    t.tcwl = cwl;
    t.tccd = ccd;
    cfg.banks = 16;
    t.tras = cfg.nsToCycles(32.0);
    t.trc = t.tras + t.trp;
    t.trrd = cfg.nsToCycles(4.9);
    t.tfaw = cfg.nsToCycles(21.0);
    t.twtr = cfg.nsToCycles(7.5);
    t.twr = cfg.nsToCycles(15.0);
    t.trtp = cfg.nsToCycles(7.5);
    t.trefi = cfg.nsToCycles(7800.0);
    sizeModule(cfg, capacity_mb, channels, ranks);
    return cfg;
}

} // namespace

DramConfig
DramConfig::ddr4_2400(int64_t capacity_mb, int channels, int ranks)
{
    return ddr4Module("DDR4-2400 17-17-17", 0.833, 17, 12, 6, capacity_mb,
                      channels, ranks);
}

DramConfig
DramConfig::ddr4_3200(int64_t capacity_mb, int channels, int ranks)
{
    return ddr4Module("DDR4-3200 22-22-22", 0.625, 22, 16, 8, capacity_mb,
                      channels, ranks);
}

namespace {

/** One --preset speed grade: its name and its factory. */
struct Grade
{
    const char *name;
    DramConfig (*make)(int64_t capacity_mb, int channels, int ranks);
};

/** The --preset speed grades, in documentation order. */
const Grade kGrades[] = {
    {"ddr3-1600", &DramConfig::ddr3_1600},
    {"ddr3-1333", &DramConfig::ddr3_1333},
    {"ddr4-2400", &DramConfig::ddr4_2400},
    {"ddr4-3200", &DramConfig::ddr4_3200},
};

} // namespace

DramConfig
DramConfig::preset(const std::string &name, int64_t capacity_mb,
                   int channels, int ranks)
{
    if (const Grade *g = findRow(kGrades, name))
        return g->make(capacity_mb, channels, ranks);
    std::string known;
    for (const auto &n : presetNames())
        known += " " + n;
    fatal("unknown DRAM preset '", name, "'; known presets:", known);
}

std::vector<std::string>
DramConfig::presetNames()
{
    return rowNames(kGrades);
}

} // namespace codic
