/**
 * @file
 * Measurement helpers of the repository benchmark: percentiles and
 * the tail rule, the open-loop arrival schedule and its sender, and
 * job-failure accounting. Kept free of any library dependency so the
 * helper tests exercise exactly the code the benchmark runs.
 */

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

/** Nearest-rank quantile (q in [0, 1]) of ascending @p sorted;
 * 0 for an empty sample. */
double quantileSorted(const std::vector<double> &sorted, double q);

/** Median (nearest rank) of an unsorted sample. */
double median(std::vector<double> values);

/** A latency tail: which percentile, its value, and its support. */
struct Tail
{
    double percentile = 50.0; //!< e.g. 90 for p90
    double value = 0.0;
    std::size_t samples = 0; //!< sample count
    std::size_t beyond = 0;  //!< samples strictly above the rank
    bool supported = false;  //!< beyond >= kMinBeyond
};

/** Samples a reported tail percentile must leave above it. */
constexpr std::size_t kMinBeyond = 10;

/**
 * The tail rule: the highest percentile of {50, 75, 90, 95, 99,
 * 99.9} whose nearest rank leaves at least kMinBeyond samples above
 * it. When even the median does not, the median is reported with
 * supported = false.
 */
Tail tailOf(std::vector<double> values);

/**
 * Arrival offsets (seconds from the window start, ascending) of a
 * Poisson process of @p rate per second over [0, @p window),
 * conditioned on its expected count round(rate * window): sorted
 * independent uniforms. The conditioning fixes the offered load of
 * a window exactly while keeping exponential-looking gaps, so two
 * seeds offer the same work in a different order.
 */
std::vector<double> poissonSchedule(double rate, double window,
                                    uint64_t seed);

/** One open-loop send, on the steady clock in seconds. */
struct Send
{
    double due = 0.0;  //!< when the schedule wanted it sent
    double sent = 0.0; //!< when the sender actually sent it

    /** How late the generator ran for this send. */
    double lateness() const { return sent - due; }
};

/**
 * Latency of a request that completed at @p done, measured from
 * its due time, so a stalled sender's delay counts against every
 * request it pushed back.
 */
inline double
latencyFromDue(const Send &send, double done)
{
    return done - send.due;
}

/** Seconds on the steady clock (arbitrary epoch). */
double nowSeconds();

/**
 * Open-loop sender: for each offset, sleep until start + offset,
 * then call send(i). Never skips or batches: a late sender sends
 * immediately and records its lateness.
 */
std::vector<Send> runSchedule(const std::vector<double> &offsets,
                              double start,
                              const std::function<void(std::size_t)> &send);

/** Job outcome counts; every attempted job lands in exactly one. */
struct Tally
{
    uint64_t ok = 0;
    uint64_t refused = 0;      //!< rejected at admission
    uint64_t errored = 0;      //!< future carried an exception
    uint64_t partial = 0;      //!< outcome other than Completed
    uint64_t check_failed = 0; //!< completed, but an output check failed

    uint64_t attempted() const
    {
        return ok + refused + errored + partial + check_failed;
    }
    uint64_t failed() const { return attempted() - ok; }
    double failedFrac() const;
};

} // namespace perfbench

#endif // PERFBENCH_STATS_H
