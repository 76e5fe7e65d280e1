#include "arch/accel_sim.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "mrf/rsu_gibbs.h"

namespace rsu::arch {

namespace {

/** Unit u's seed, config.seed + u. Validates @p config first, so a
 * bad farm throws before any unit or table is built. */
std::vector<uint64_t>
unitSeeds(const AcceleratorSimConfig &config)
{
    if (config.num_units < 1)
        throw std::invalid_argument("AcceleratorSim: need units");
    if (config.frequency_ghz <= 0.0 || config.mem_bw_gbs <= 0.0)
        throw std::invalid_argument("AcceleratorSim: bad "
                                    "configuration");
    std::vector<uint64_t> seeds(config.num_units);
    for (int u = 0; u < config.num_units; ++u)
        seeds[u] = config.seed + u;
    return seeds;
}

uint64_t
busyCycles(const rsu::core::RsuG &unit)
{
    return unit.stats().issue_cycles + unit.stats().stall_cycles;
}

} // namespace

AcceleratorSim::AcceleratorSim(rsu::mrf::GridMrf &mrf,
                               const AcceleratorSimConfig &config)
    : mrf_(mrf), config_(config),
      core_(mrf,
            rsu::mrf::RsuGibbsSampler::unitConfigFor(mrf, config.unit),
            unitSeeds(config))
{
    // Paper section 8.2 byte accounting: 1 B observed data + 4 B
    // neighbour labels, plus one byte per candidate when data2
    // varies per label (e.g. motion's 49 destination pixels).
    bytes_per_site_ =
        5 + (mrf_.singleton().data2PerLabel() &&
                     mrf_.numLabels() > 1
                 ? mrf_.numLabels()
                 : 0);
}

AcceleratorIterationStats
AcceleratorSim::sweep()
{
    const int n_units = numUnits();
    std::vector<uint64_t> busy_before(n_units);
    for (int u = 0; u < n_units; ++u)
        busy_before[u] = busyCycles(unit(u));

    // Checkerboard: all even-parity sites (round-robin across
    // units), then all odd-parity sites.
    int counter = 0;
    core_.sweep([&](auto &&row) {
        rsu::mrf::forEachSite(
            mrf_.width(), mrf_.height(), rsu::mrf::Schedule::Checkerboard,
            [&](int x, int y) {
                row(counter++ % n_units, y, x, x + 1, 1);
            });
    });

    AcceleratorIterationStats stats;
    for (int u = 0; u < n_units; ++u) {
        const uint64_t busy = busyCycles(unit(u)) - busy_before[u];
        stats.total_cycles += busy;
        stats.critical_cycles =
            std::max(stats.critical_cycles, busy);
    }
    stats.bytes =
        static_cast<int64_t>(mrf_.size()) * bytes_per_site_;
    stats.compute_seconds =
        static_cast<double>(stats.critical_cycles) /
        (config_.frequency_ghz * 1e9);
    stats.memory_seconds = static_cast<double>(stats.bytes) /
                           (config_.mem_bw_gbs * 1e9);
    last_utilization_ =
        stats.critical_cycles == 0
            ? 0.0
            : static_cast<double>(stats.total_cycles) /
                  (static_cast<double>(stats.critical_cycles) *
                   n_units);
    return stats;
}

AcceleratorIterationStats
AcceleratorSim::run(int n)
{
    AcceleratorIterationStats acc;
    for (int i = 0; i < n; ++i) {
        const AcceleratorIterationStats s = sweep();
        acc.critical_cycles += s.critical_cycles;
        acc.total_cycles += s.total_cycles;
        acc.bytes += s.bytes;
        acc.compute_seconds += s.compute_seconds;
        acc.memory_seconds += s.memory_seconds;
    }
    return acc;
}

} // namespace rsu::arch
