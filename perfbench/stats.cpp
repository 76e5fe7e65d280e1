#include "stats.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "rng/xoshiro256.h"

namespace perfbench {

double
quantileSorted(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const auto n = static_cast<double>(sorted.size());
    // The epsilon keeps q * n from rounding up past an exact rank
    // (0.999 * 10000 is 9990.000000000002 in binary).
    auto rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    return quantileSorted(values, 0.5);
}

Tail
tailOf(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    Tail tail;
    tail.samples = values.size();
    static const double kPercentiles[] = {50.0, 75.0, 90.0,
                                          95.0, 99.0, 99.9};
    for (const double p : kPercentiles) {
        const auto n = static_cast<double>(values.size());
        const auto rank = static_cast<std::size_t>(
            std::max(1.0, std::ceil(p / 100.0 * n - 1e-9)));
        const std::size_t beyond =
            values.size() >= rank ? values.size() - rank : 0;
        if (beyond < kMinBeyond && p > 50.0)
            break;
        tail.percentile = p;
        tail.value = quantileSorted(values, p / 100.0);
        tail.beyond = beyond;
        tail.supported = beyond >= kMinBeyond;
    }
    return tail;
}

std::vector<double>
poissonSchedule(double rate, double window, uint64_t seed)
{
    const auto count =
        static_cast<std::size_t>(std::llround(rate * window));
    rsu::rng::Xoshiro256 rng(seed);
    std::vector<double> offsets(count);
    for (auto &t : offsets)
        t = rng.uniform() * window;
    std::sort(offsets.begin(), offsets.end());
    return offsets;
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::vector<Send>
runSchedule(const std::vector<double> &offsets, double start,
            const std::function<void(std::size_t)> &send)
{
    std::vector<Send> sends(offsets.size());
    for (std::size_t i = 0; i < offsets.size(); ++i) {
        const double due = start + offsets[i];
        const double wait = due - nowSeconds();
        if (wait > 0.0)
            std::this_thread::sleep_for(
                std::chrono::duration<double>(wait));
        sends[i].due = due;
        sends[i].sent = nowSeconds();
        send(i);
    }
    return sends;
}

double
Tally::failedFrac() const
{
    const uint64_t n = attempted();
    return n == 0 ? 0.0
                  : static_cast<double>(failed()) /
                        static_cast<double>(n);
}

} // namespace perfbench
