/**
 * @file
 * Helpers for the option tables: the codic_run flags
 * (scenario/cli.cc), and the --sched presets and knobs and --preset
 * speed grades (dram/config.cc). Each option surface is one array of
 * rows with a `name` column; these helpers look a row up, list the
 * names, format a help entry, and parse a value so that malformed
 * input fails instead of being truncated, wrapped or negated.
 */

#ifndef CODIC_COMMON_OPTION_TABLE_H
#define CODIC_COMMON_OPTION_TABLE_H

#include <cerrno>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

namespace codic {

/** The row of `rows` called `name`, or nullptr. */
template <typename Row, size_t N>
const Row *
findRow(const Row (&rows)[N], const std::string &name)
{
    for (const Row &row : rows)
        if (name == row.name)
            return &row;
    return nullptr;
}

/** The names of `rows`, in table order. */
template <typename Row, size_t N>
std::vector<std::string>
rowNames(const Row (&rows)[N])
{
    std::vector<std::string> names;
    for (const Row &row : rows)
        names.push_back(row.name);
    return names;
}

/**
 * One entry of a help listing: "  label  help\n", with the label
 * padded to `width` and every line of a multi-line help aligned in
 * the column after it. A label wider than `width` puts the help on
 * the next line.
 */
inline std::string
helpEntry(const std::string &label, const std::string &help, size_t width)
{
    const std::string indent(width + 4, ' ');
    std::string out = "  " + label;
    out += label.size() > width
               ? "\n" + indent
               : std::string(width + 2 - label.size(), ' ');
    for (const char c : help) {
        out += c;
        if (c == '\n')
            out += indent;
    }
    return out + '\n';
}

/**
 * Parse all of `text` into `out`: a finite number for a floating T,
 * an in-range integer otherwise, with no sign for an unsigned T.
 * @return false (leaving `out` unspecified) on anything else.
 */
template <typename T>
bool
parseWhole(const char *text, T &out)
{
    char *end = nullptr;
    errno = 0;
    bool ok;
    if constexpr (std::is_floating_point_v<T>) {
        out = std::strtod(text, &end);
        ok = std::isfinite(out);
    } else if constexpr (std::is_signed_v<T>) {
        const long long wide = std::strtoll(text, &end, 10);
        ok = wide >= std::numeric_limits<T>::min() &&
             wide <= std::numeric_limits<T>::max();
        out = static_cast<T>(wide);
    } else {
        // strtoull silently negates "-1" into a huge value.
        ok = text[0] != '-' && text[0] != '+';
        out = std::strtoull(text, &end, 10);
    }
    return ok && end != text && *end == '\0' && errno != ERANGE;
}

} // namespace codic

#endif // CODIC_COMMON_OPTION_TABLE_H
