#include "mrf/annealing.h"

#include <cmath>
#include <stdexcept>

namespace rsu::mrf {

std::vector<double>
AnnealingSchedule::temperatures() const
{
    // Non-finite parameters defeat the ordering checks below (every
    // comparison against NaN is false) and an infinite start never
    // cools below stop, so the stage loop would spin forever; reject
    // them before any range test.
    if (!std::isfinite(start_temperature) ||
        !std::isfinite(stop_temperature) ||
        !std::isfinite(cooling_factor))
        throw std::invalid_argument("AnnealingSchedule: "
                                    "temperatures and cooling "
                                    "factor must be finite");
    if (start_temperature <= 0.0 ||
        stop_temperature <= 0.0 ||
        start_temperature < stop_temperature)
        throw std::invalid_argument("AnnealingSchedule: need "
                                    "start >= stop > 0");
    if (cooling_factor <= 0.0 || cooling_factor >= 1.0)
        throw std::invalid_argument("AnnealingSchedule: cooling "
                                    "factor must be in (0, 1)");
    if (sweeps_per_stage < 1)
        throw std::invalid_argument("AnnealingSchedule: need "
                                    "sweeps per stage");
    std::vector<double> stages;
    for (double t = start_temperature; t >= stop_temperature;
         t *= cooling_factor) {
        stages.push_back(t);
    }
    if (stages.empty() || stages.back() > stop_temperature)
        stages.push_back(stop_temperature);
    return stages;
}

int64_t
anneal(GridMrf &mrf, const AnnealingSchedule &schedule,
       const std::function<void(double)> &set_temperature,
       const std::function<void()> &sweep,
       const rsu::core::RowParallelFor &parallel)
{
    int64_t best_energy = mrf.totalEnergy(parallel);
    std::vector<Label> best_labels = mrf.labels();

    for (const double t : schedule.temperatures()) {
        set_temperature(t);
        for (int s = 0; s < schedule.sweeps_per_stage; ++s) {
            sweep();
            const int64_t e = mrf.totalEnergy(parallel);
            if (e < best_energy) {
                best_energy = e;
                best_labels = mrf.labels();
            }
        }
    }
    mrf.setLabels(best_labels);
    return best_energy;
}

} // namespace rsu::mrf
