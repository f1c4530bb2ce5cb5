/**
 * @file
 * Host-time tracing for the traced benchmark driver: spans for
 * coarse layer boundaries, per-name counters for calls made millions
 * of times. Everything is kept in memory and written out once, when
 * the run ends. Timestamps are std::chrono::steady_clock nanoseconds
 * since the tracer was created.
 *
 * Self time:
 *  - a span's self time is its duration minus the part of its
 *    interval covered by its child spans (interval union, so
 *    overlapping children are not counted twice) minus the time of
 *    counted calls made directly inside it;
 *  - a counter's self time is its total time minus the time of
 *    counted calls nested directly inside its calls.
 *
 * Single-threaded: the benchmark pins --threads 1, and the open-frame
 * stack below belongs to the thread that runs the traced workload.
 */

#ifndef PERFBENCH_TRACING_H
#define PERFBENCH_TRACING_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span
{
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;        //!< Index of the enclosing span, -1 = root.
    int64_t counted_ns = 0; //!< Counted calls made directly inside.
};

/** Per-name aggregate of a hot call. */
struct Counter
{
    uint64_t calls = 0;
    int64_t total_ns = 0;
    int64_t nested_ns = 0; //!< Counted calls made inside these calls.

    int64_t selfNs() const { return total_ns - nested_ns; }
};

/**
 * Self time of every span of a finished tree (see the file comment).
 * Children are found through Span::parent; they may nest to any
 * depth, overlap each other and stick out of their parent (only the
 * part inside the parent's interval is subtracted).
 */
inline std::vector<int64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
        spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0)
            children[static_cast<size_t>(s.parent)].emplace_back(
                s.start_ns, s.end_ns);

    std::vector<int64_t> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        int64_t covered = 0;
        int64_t reach = s.start_ns; // End of the union so far.
        for (auto [b, e] : kids) {
            b = std::max(b, reach);
            e = std::min(e, s.end_ns);
            if (e > b) {
                covered += e - b;
                reach = e;
            }
        }
        self[i] = (s.end_ns - s.start_ns) - covered - s.counted_ns;
    }
    return self;
}

class Tracer
{
  public:
    Tracer() : origin_(std::chrono::steady_clock::now()) {}

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    int64_t nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - origin_)
            .count();
    }

    /** The counter named `name`; the reference stays valid. */
    Counter &counter(const std::string &name)
    {
        auto it = counters_.find(name);
        if (it == counters_.end())
            it = counters_.emplace(name, &store_.emplace_back()).first;
        return *it->second;
    }

    /** Open a span under the innermost open span. */
    void begin(std::string name)
    {
        Span s;
        s.name = std::move(name);
        s.parent = open_span_;
        s.start_ns = nowNs();
        spans_.push_back(std::move(s));
        const int id = static_cast<int>(spans_.size()) - 1;
        frames_.push_back({spans_.back().start_ns, 0, nullptr, id});
        open_span_ = id;
    }

    /** Close the innermost open span; returns its duration. */
    int64_t end()
    {
        const Frame f = frames_.back();
        frames_.pop_back();
        Span &s = spans_[static_cast<size_t>(f.span)];
        s.end_ns = nowNs();
        s.counted_ns = f.nested_ns;
        open_span_ = s.parent;
        const int64_t d = s.end_ns - s.start_ns;
        if (!frames_.empty() && frames_.back().counter)
            frames_.back().nested_ns += d;
        return d;
    }

    /** Start one call of a counter (see CountedCall). */
    void enter(Counter &c) { frames_.push_back({nowNs(), 0, &c, -1}); }

    void leave()
    {
        const Frame f = frames_.back();
        frames_.pop_back();
        const int64_t d = nowNs() - f.start_ns;
        f.counter->calls += 1;
        f.counter->total_ns += d;
        f.counter->nested_ns += f.nested_ns;
        if (!frames_.empty())
            frames_.back().nested_ns += d;
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Summed self time of every span called `name`. */
    int64_t spanSelfNs(const std::string &name) const
    {
        const auto self = selfTimes(spans_);
        int64_t sum = 0;
        for (size_t i = 0; i < spans_.size(); ++i)
            if (spans_[i].name == name)
                sum += self[i];
        return sum;
    }

    /** Summed duration of every span called `name`. */
    int64_t spanTotalNs(const std::string &name) const
    {
        int64_t sum = 0;
        for (const Span &s : spans_)
            if (s.name == name)
                sum += s.end_ns - s.start_ns;
        return sum;
    }

    /** Write spans (with self times) and counters as one document. */
    void writeJson(std::ostream &out) const
    {
        const auto self = selfTimes(spans_);
        out << "{\"spans\":[";
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << (i ? ",\n" : "\n") << "{\"id\":" << i
                << ",\"name\":\"" << s.name << "\",\"parent\":"
                << s.parent << ",\"start_ns\":" << s.start_ns
                << ",\"end_ns\":" << s.end_ns
                << ",\"self_ns\":" << self[i] << "}";
        }
        out << "],\n\"counters\":{";
        bool first = true;
        for (const auto &[name, c] : counters_) {
            out << (first ? "\n" : ",\n") << "\"" << name
                << "\":{\"calls\":" << c->calls
                << ",\"total_ns\":" << c->total_ns
                << ",\"self_ns\":" << c->selfNs() << "}";
            first = false;
        }
        out << "}}\n";
    }

  private:
    struct Frame
    {
        int64_t start_ns;
        int64_t nested_ns; //!< Counted calls made directly inside.
        Counter *counter;  //!< Null for a span frame.
        int span;
    };

    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<Frame> frames_;
    int open_span_ = -1;
    std::deque<Counter> store_;
    std::map<std::string, Counter *> counters_;
};

/** RAII span. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &t, std::string name) : t_(t)
    {
        t_.begin(std::move(name));
    }
    ~ScopedSpan() { t_.end(); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &t_;
};

/** RAII counted call. */
class CountedCall
{
  public:
    CountedCall(Tracer &t, Counter &c) : t_(t) { t_.enter(c); }
    ~CountedCall() { t_.leave(); }

    CountedCall(const CountedCall &) = delete;
    CountedCall &operator=(const CountedCall &) = delete;

  private:
    Tracer &t_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACING_H