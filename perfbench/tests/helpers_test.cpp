// Tests of the benchmark's own helpers: the tail-percentile rule,
// the open-loop schedule and sender, failure accounting, and the
// trace format's self-time rule.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <thread>

#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

std::vector<double>
ramp(std::size_t n)
{
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0); // 1..n
    return v;
}

TEST(TailRule, HighestPercentileWithTenBeyond)
{
    // n = 100: p90 leaves exactly 10 samples above rank 90; p95
    // leaves 5, so p90 is the highest supported.
    const Tail t = tailOf(ramp(100));
    EXPECT_EQ(t.percentile, 90.0);
    EXPECT_EQ(t.value, 90.0);
    EXPECT_EQ(t.beyond, 10u);
    EXPECT_TRUE(t.supported);

    // n = 99: p90 leaves 9, so the rule falls back to p75.
    EXPECT_EQ(tailOf(ramp(99)).percentile, 75.0);
    // n = 1000: p99 leaves 10.
    EXPECT_EQ(tailOf(ramp(1000)).percentile, 99.0);
    // n = 10000: p99.9 leaves 10.
    EXPECT_EQ(tailOf(ramp(10000)).percentile, 99.9);
}

TEST(TailRule, UnsortedInputAndSmallSamples)
{
    std::vector<double> v = ramp(40);
    std::reverse(v.begin(), v.end());
    const Tail t = tailOf(v);
    EXPECT_EQ(t.percentile, 75.0);
    EXPECT_EQ(t.value, 30.0);

    // Fewer than 11 samples support no tail: the median is reported
    // and flagged.
    const Tail small = tailOf(ramp(7));
    EXPECT_EQ(small.percentile, 50.0);
    EXPECT_EQ(small.value, 4.0);
    EXPECT_FALSE(small.supported);
    EXPECT_FALSE(tailOf({}).supported);
}

TEST(Median, NearestRank)
{
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.0);
    EXPECT_EQ(median({}), 0.0);
}

TEST(PoissonSchedule, MeanRateAndGaps)
{
    const double rate = 40.0, window = 50.0;
    const auto t = poissonSchedule(rate, window, 11);
    ASSERT_EQ(t.size(), 2000u); // exactly rate x window arrivals
    EXPECT_TRUE(std::is_sorted(t.begin(), t.end()));
    EXPECT_GE(t.front(), 0.0);
    EXPECT_LT(t.back(), window);

    // Gaps of a Poisson process are exponential: mean 1/rate and
    // coefficient of variation 1.
    double sum = 0.0, sq = 0.0;
    for (std::size_t i = 1; i < t.size(); ++i) {
        const double g = t[i] - t[i - 1];
        sum += g;
        sq += g * g;
    }
    const double n = static_cast<double>(t.size() - 1);
    const double mean = sum / n;
    const double cv = std::sqrt(sq / n - mean * mean) / mean;
    EXPECT_NEAR(mean * rate, 1.0, 0.05);
    EXPECT_NEAR(cv, 1.0, 0.1);

    // Same seed, same schedule; another seed, another order.
    EXPECT_EQ(t, poissonSchedule(rate, window, 11));
    EXPECT_NE(t, poissonSchedule(rate, window, 12));
}

TEST(OpenLoop, LatencyCountsFromDueTime)
{
    // Sends due every 1 ms, but each send stalls the sender 4 ms:
    // lateness grows, and a request's latency measured from its due
    // time includes the wait the stall imposed on it.
    std::vector<double> offsets = {0.0, 0.001, 0.002, 0.003, 0.004};
    const double start = nowSeconds() + 0.005;
    const auto sends = runSchedule(offsets, start, [](std::size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(4));
    });
    ASSERT_EQ(sends.size(), offsets.size());
    for (std::size_t i = 0; i < sends.size(); ++i) {
        EXPECT_DOUBLE_EQ(sends[i].due, start + offsets[i]);
        EXPECT_GE(sends[i].lateness(), 0.003 * i - 1e-4);
        const double done = sends[i].sent + 0.002;
        EXPECT_DOUBLE_EQ(latencyFromDue(sends[i], done),
                         done - sends[i].due);
        EXPECT_GT(latencyFromDue(sends[i], done),
                  done - sends[i].sent + 0.003 * i - 1e-4);
    }
    // An on-time sender waits for the due time and is never early.
    const double start2 = nowSeconds() + 0.01;
    const auto on_time = runSchedule({0.0, 0.005}, start2, [](std::size_t) {});
    for (const auto &s : on_time) {
        EXPECT_GE(s.lateness(), 0.0);
        EXPECT_LT(s.lateness(), 0.005);
    }
}

TEST(Tally, RefusalsCountAsFailed)
{
    Tally t;
    t.ok = 7;
    t.refused = 2;
    t.check_failed = 1;
    EXPECT_EQ(t.attempted(), 10u);
    EXPECT_EQ(t.failed(), 3u);
    EXPECT_DOUBLE_EQ(t.failedFrac(), 0.3);

    Tally refused_only;
    refused_only.refused = 4;
    EXPECT_EQ(refused_only.attempted(), 4u);
    EXPECT_DOUBLE_EQ(refused_only.failedFrac(), 1.0);
    EXPECT_DOUBLE_EQ(Tally{}.failedFrac(), 0.0);
}

TEST(Trace, SelfTimeSubtractsUnionOfChildren)
{
    // Parent [0, 100); children [10, 30) and [20, 50) overlap, so
    // they cover 40; a child sticking out past the parent is clipped.
    std::vector<Span> spans(4);
    spans[0] = {1, 0, 0, "p", 0, 100, {}};
    spans[1] = {2, 1, 0, "c", 10, 30, {}};
    spans[2] = {3, 1, 0, "c", 20, 50, {}};
    spans[3] = {4, 1, 0, "c", 90, 120, {}};
    const auto self = selfSeconds(spans);
    EXPECT_NEAR(self.at(1), 50e-9, 1e-15);
    EXPECT_NEAR(self.at(2), 20e-9, 1e-15);
}

TEST(Trace, WriteReadRoundTrip)
{
    const std::string path = testing::TempDir() + "perfbench_trace.tsv";
    Tracer tracer(true);
    {
        ScopedSpan outer(tracer, "outer", 0, 7);
        ScopedSpan inner(tracer, "inner", outer.id(), 7);
        inner.set("sites", 262144);
        inner.set("ratio", 0.125);
    }
    tracer.write(path, {"env: test"});
    const auto spans = readTrace(path);
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].name, "inner");
    EXPECT_EQ(spans[0].parent, spans[1].id);
    EXPECT_EQ(spans[0].job, 7u);
    EXPECT_EQ(spans[0].attr("sites"), 262144.0);
    EXPECT_EQ(spans[0].attr("ratio"), 0.125);
    EXPECT_EQ(spans[0].attr("absent", -1.0), -1.0);
    EXPECT_LE(spans[1].start_ns, spans[0].start_ns);
    EXPECT_GE(spans[1].end_ns, spans[0].end_ns);
    std::remove(path.c_str());

    Tracer off(false);
    { ScopedSpan s(off, "ignored"); }
    EXPECT_EQ(off.size(), 0u);
}

} // namespace
} // namespace perfbench
