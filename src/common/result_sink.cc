#include "common/result_sink.h"

#include <charconv>
#include <cmath>

#include "common/logging.h"
#include "common/table.h"

namespace codic {

namespace {

/**
 * Shortest round-trip decimal form of a double (std::to_chars), so
 * structured output is compact and byte-deterministic. JSON has no
 * inf/nan literals; clamp them to null.
 */
std::string
doubleToString(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), value);
    return std::string(buf, res.ptr);
}

std::string
jsonEscape(const std::string &raw)
{
    std::string out;
    out.reserve(raw.size() + 2);
    out.push_back('"');
    for (char c : raw) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    out.push_back('"');
    return out;
}

/**
 * RFC 4180 quoting: any cell containing a comma, quote, or line
 * break (\n or \r) is wrapped in quotes with embedded quotes
 * doubled, so free-text labels can never corrupt the row structure.
 */
std::string
csvEscape(const std::string &raw)
{
    if (raw.find_first_of(",\"\n\r") == std::string::npos)
        return raw;
    std::string out = "\"";
    for (char c : raw) {
        if (c == '"')
            out += "\"\"";
        else
            out.push_back(c);
    }
    out.push_back('"');
    return out;
}

} // namespace

// --- ResultValue ------------------------------------------------------------

std::string
ResultValue::json() const
{
    switch (kind) {
    case Kind::String: return jsonEscape(s);
    case Kind::Double: return doubleToString(d);
    case Kind::Int: return std::to_string(i);
    case Kind::Uint: return std::to_string(u);
    case Kind::Bool: return b ? "true" : "false";
    }
    return "null";
}

std::string
ResultValue::text() const
{
    switch (kind) {
    case Kind::String: return s;
    case Kind::Double: return doubleToString(d);
    case Kind::Int: return std::to_string(i);
    case Kind::Uint: return std::to_string(u);
    case Kind::Bool: return b ? "yes" : "no";
    }
    return "";
}

std::string
ResultValue::display() const
{
    if (kind != Kind::Double)
        return text();
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", d);
    return buf;
}

// --- ResultRow --------------------------------------------------------------

ResultRow &
ResultRow::push(std::string key, ResultValue v)
{
    values_.emplace_back(std::move(key), std::move(v));
    return *this;
}

ResultRow &
ResultRow::add(std::string key, std::string value)
{
    ResultValue v;
    v.kind = ResultValue::Kind::String;
    v.s = std::move(value);
    return push(std::move(key), std::move(v));
}

ResultRow &
ResultRow::add(std::string key, const char *value)
{
    return add(std::move(key), std::string(value));
}

ResultRow &
ResultRow::add(std::string key, double value)
{
    ResultValue v;
    v.kind = ResultValue::Kind::Double;
    v.d = value;
    return push(std::move(key), v);
}

ResultRow &
ResultRow::add(std::string key, int value)
{
    return add(std::move(key), static_cast<int64_t>(value));
}

ResultRow &
ResultRow::add(std::string key, int64_t value)
{
    ResultValue v;
    v.kind = ResultValue::Kind::Int;
    v.i = value;
    return push(std::move(key), v);
}

ResultRow &
ResultRow::add(std::string key, uint64_t value)
{
    ResultValue v;
    v.kind = ResultValue::Kind::Uint;
    v.u = value;
    return push(std::move(key), v);
}

ResultRow &
ResultRow::add(std::string key, bool value)
{
    ResultValue v;
    v.kind = ResultValue::Kind::Bool;
    v.b = value;
    return push(std::move(key), v);
}

ResultRow &
ResultRow::addTiming(std::string key, double value)
{
    ResultValue v;
    v.kind = ResultValue::Kind::Double;
    v.d = value;
    v.timing = true;
    return push(std::move(key), v);
}

// --- JsonResultSink ---------------------------------------------------------

JsonResultSink::JsonResultSink(std::ostream &out) : out_(out) {}

JsonResultSink::~JsonResultSink() { finish(); }

void
JsonResultSink::beginScenario(const std::string &name,
                              const std::string &description,
                              const RunOptions &options)
{
    CODIC_ASSERT(!finished_);
    emit_timings_ = options.emit_timings;
    rows_.clear();
    notes_.clear();
    header_ = "{\"scenario\":" + jsonEscape(name) +
              ",\"description\":" + jsonEscape(description) +
              ",\"options\":{\"seed\":" + std::to_string(options.seed) +
              ",\"scale\":" + doubleToString(options.scale) +
              ",\"repeats\":" + std::to_string(options.repeats) +
              ",\"channels\":" + std::to_string(options.channels) +
              ",\"capacity_mb\":" +
              std::to_string(options.capacity_mb) +
              ",\"devices\":" + std::to_string(options.devices) +
              ",\"requests\":" + std::to_string(options.requests) +
              ",\"zipf\":" + doubleToString(options.zipf) + "}";
}

void
JsonResultSink::row(const std::string &section, const ResultRow &r)
{
    // Rows and notes interleave freely during a run; the object is
    // assembled at endScenario, so buffer the serialized row here.
    std::string line = "{\"section\":" + jsonEscape(section);
    for (const auto &[key, value] : r.values()) {
        if (value.timing && !emit_timings_)
            continue;
        // Appended piecewise: GCC 12's -Wrestrict misfires on a
        // chained `"," + ... + value.json()` here.
        line += ',';
        line += jsonEscape(key);
        line += ':';
        line += value.json();
    }
    line += "}";
    rows_.push_back(std::move(line));
}

void
JsonResultSink::note(const std::string &text)
{
    notes_.push_back(jsonEscape(text));
}

void
JsonResultSink::endScenario()
{
    out_ << (any_scenario_ ? ",\n" : "[\n");
    any_scenario_ = true;
    out_ << header_ << ",\"rows\":[";
    for (size_t i = 0; i < rows_.size(); ++i)
        out_ << (i ? ",\n " : "\n ") << rows_[i];
    out_ << "],\"notes\":[";
    for (size_t i = 0; i < notes_.size(); ++i)
        out_ << (i ? "," : "") << notes_[i];
    out_ << "]}";
    rows_.clear();
    notes_.clear();
}

void
JsonResultSink::finish()
{
    if (finished_)
        return;
    finished_ = true;
    out_ << (any_scenario_ ? "\n]\n" : "[]\n");
    out_.flush();
}

// --- CsvResultSink ----------------------------------------------------------

CsvResultSink::CsvResultSink(std::ostream &out) : out_(out)
{
    out_ << "scenario,seed,section,row,key,value\n";
}

void
CsvResultSink::beginScenario(const std::string &name,
                             const std::string & /*description*/,
                             const RunOptions &options)
{
    scenario_ = name;
    seed_ = options.seed;
    emit_timings_ = options.emit_timings;
    row_index_ = 0;
}

void
CsvResultSink::row(const std::string &section, const ResultRow &r)
{
    for (const auto &[key, value] : r.values()) {
        if (value.timing && !emit_timings_)
            continue;
        out_ << csvEscape(scenario_) << "," << seed_ << ","
             << csvEscape(section) << "," << row_index_ << ","
             << csvEscape(key) << "," << csvEscape(value.text())
             << "\n";
    }
    ++row_index_;
}

void
CsvResultSink::note(const std::string & /*text*/)
{
    // Commentary is human-facing; CSV carries data rows only.
}

void
CsvResultSink::endScenario()
{
    out_.flush();
}

// --- TextResultSink ---------------------------------------------------------

TextResultSink::TextResultSink(std::ostream &out) : out_(out) {}

void
TextResultSink::beginScenario(const std::string &name,
                              const std::string &description,
                              const RunOptions &options)
{
    out_ << "=== " << name << ": " << description << " ===\n";
    if (options.scale < 1.0)
        out_ << "(scaled run: " << doubleToString(options.scale)
             << "x the paper workload)\n";
}

void
TextResultSink::flushSection()
{
    if (pending_.empty())
        return;
    out_ << "\n--- " << section_ << " ---\n";
    TextTable table(columns_);
    for (auto &row : pending_)
        table.addRow(std::move(row));
    out_ << table.render();
    pending_.clear();
    columns_.clear();
}

void
TextResultSink::row(const std::string &section, const ResultRow &r)
{
    if (section != section_) {
        flushSection();
        section_ = section;
    }
    if (columns_.empty()) {
        for (const auto &[key, value] : r.values())
            columns_.push_back(key);
    }
    std::vector<std::string> cells;
    cells.reserve(columns_.size());
    for (const auto &[key, value] : r.values())
        cells.push_back(value.display());
    // Tolerate shape drift within a section: pad/trim to the header.
    cells.resize(columns_.size());
    pending_.push_back(std::move(cells));
}

void
TextResultSink::note(const std::string &text)
{
    flushSection();
    out_ << text << "\n";
}

void
TextResultSink::endScenario()
{
    flushSection();
    section_.clear();
    out_ << "\n";
    out_.flush();
}

// --- MultiResultSink --------------------------------------------------------

void
MultiResultSink::addSink(ResultSink *sink)
{
    if (sink)
        sinks_.push_back(sink);
}

void
MultiResultSink::beginScenario(const std::string &name,
                               const std::string &description,
                               const RunOptions &options)
{
    for (auto *s : sinks_)
        s->beginScenario(name, description, options);
}

void
MultiResultSink::row(const std::string &section, const ResultRow &r)
{
    for (auto *s : sinks_)
        s->row(section, r);
}

void
MultiResultSink::note(const std::string &text)
{
    for (auto *s : sinks_)
        s->note(text);
}

void
MultiResultSink::endScenario()
{
    for (auto *s : sinks_)
        s->endScenario();
}

} // namespace codic
