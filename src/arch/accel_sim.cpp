#include "arch/accel_sim.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "arch/workload.h"

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

/** Whether data2 streams per site: some site's candidate row differs
 * from site 0's. Rows sit back to back, so every row equals the
 * first exactly when each equals the one before it. */
bool
data2Streams(const rsu::core::Data2Table &data2, int sites)
{
    return !std::equal(data2.row(1), data2.row(sites), data2.row(0));
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
      core_(mrf, rsu::core::RsuGConfig{}, unitSeeds(config)),
      bytes_per_site_(siteBytes(mrf.numLabels(),
                                data2Streams(core_.data2(), mrf.size())))
{
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
