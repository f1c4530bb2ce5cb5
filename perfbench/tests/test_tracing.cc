/**
 * @file
 * Self-time arithmetic of the benchmark's tracer on hand-built span
 * trees and on live counters.
 */

#include <gtest/gtest.h>

#include "tracing.h"

namespace perfbench {
namespace {

Span
span(const char *name, int64_t start, int64_t end, int parent,
     int64_t counted = 0)
{
    Span s;
    s.name = name;
    s.start_ns = start;
    s.end_ns = end;
    s.parent = parent;
    s.counted_ns = counted;
    return s;
}

TEST(SelfTimes, LeafSelfIsItsDuration)
{
    const auto self = selfTimes({span("a", 10, 35, -1)});
    EXPECT_EQ(self[0], 25);
}

TEST(SelfTimes, NestedAndSiblingChildren)
{
    // root [0,100)
    //   a [10,40)        sibling of b
    //     a1 [15,20)     nested in a
    //     a2 [25,30)
    //   b [50,70), with 4 ns of counted calls directly inside
    const std::vector<Span> tree = {
        span("root", 0, 100, -1),  span("a", 10, 40, 0),
        span("a1", 15, 20, 1),     span("a2", 25, 30, 1),
        span("b", 50, 70, 0, 4),
    };
    const auto self = selfTimes(tree);
    EXPECT_EQ(self[0], 100 - 30 - 20); // Grandchildren not subtracted.
    EXPECT_EQ(self[1], 30 - 5 - 5);
    EXPECT_EQ(self[2], 5);
    EXPECT_EQ(self[3], 5);
    EXPECT_EQ(self[4], 20 - 4);

    int64_t sum = 0;
    for (int64_t s : self)
        sum += s;
    EXPECT_EQ(sum + 4, 100) << "self times plus counted calls must "
                               "partition the root interval";
}

TEST(SelfTimes, OverlappingChildrenCountOnce)
{
    // Two children overlapping on [30,40) and one sticking out of
    // the parent's end: covered = [20,50) ∪ [80,90) = 40 ns.
    const std::vector<Span> tree = {
        span("p", 0, 90, -1),
        span("c1", 20, 40, 0),
        span("c2", 30, 50, 0),
        span("c3", 80, 120, 0),
    };
    EXPECT_EQ(selfTimes(tree)[0], 90 - 40);
}

TEST(Tracer, CountersSubtractNestedCounters)
{
    Tracer t;
    Counter &outer = t.counter("outer");
    Counter &inner = t.counter("inner");
    t.begin("span");
    for (int i = 0; i < 3; ++i) {
        CountedCall o(t, outer);
        for (int j = 0; j < 2; ++j)
            CountedCall n(t, inner);
    }
    t.end();

    EXPECT_EQ(outer.calls, 3u);
    EXPECT_EQ(inner.calls, 6u);
    EXPECT_EQ(outer.selfNs(), outer.total_ns - inner.total_ns);
    EXPECT_EQ(inner.selfNs(), inner.total_ns);

    // The span's counted time is the outer calls only; inner calls
    // are already inside them.
    const Span &s = t.spans()[0];
    EXPECT_EQ(s.counted_ns, outer.total_ns);
    EXPECT_EQ(selfTimes(t.spans())[0],
              (s.end_ns - s.start_ns) - outer.total_ns);
}

TEST(Tracer, SpansNestUnderTheOpenSpan)
{
    Tracer t;
    t.begin("root");
    t.begin("child");
    t.end();
    t.begin("sibling");
    t.end();
    t.end();
    ASSERT_EQ(t.spans().size(), 3u);
    EXPECT_EQ(t.spans()[0].parent, -1);
    EXPECT_EQ(t.spans()[1].parent, 0);
    EXPECT_EQ(t.spans()[2].parent, 0);
    EXPECT_GE(t.spanSelfNs("root"), 0);
}

} // namespace
} // namespace perfbench
