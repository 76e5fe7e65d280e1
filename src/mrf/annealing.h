/**
 * @file
 * Simulated annealing on top of the Gibbs samplers.
 *
 * Geman & Geman's original MRF restoration (paper reference [11])
 * anneals the temperature toward zero so the chain settles into the
 * MAP configuration. The schedule driver works with either sampler:
 * the software Gibbs reads the model temperature dynamically, and
 * the RSU path re-initializes the unit's intensity map at each
 * stage — a per-application initialization the architecture already
 * supports (section 6.1), costing a handful of cycles per stage.
 */

#ifndef RSU_MRF_ANNEALING_H
#define RSU_MRF_ANNEALING_H

#include <functional>
#include <vector>

#include "mrf/grid_mrf.h"

namespace rsu::mrf {

/** Geometric cooling schedule. */
struct AnnealingSchedule
{
    double start_temperature = 16.0;
    double stop_temperature = 1.0;
    double cooling_factor = 0.8;  //!< T *= factor per stage
    int sweeps_per_stage = 5;

    /** Stage temperatures, highest first. */
    std::vector<double> temperatures() const;
};

/**
 * Anneal @p mrf under @p schedule.
 *
 * @param mrf the model (labels mutated in place; its configured
 *        temperature is updated stage by stage)
 * @param set_temperature callback installing a stage temperature
 *        into the sampling machinery (e.g. rebuilding the RSU LUT)
 * @param sweep one MCMC iteration at the current temperature
 * @param parallel optional row runner for the total-energy scan
 *        after every sweep (see GridMrf::totalEnergy); the result
 *        is identical with or without it
 * @return the best (lowest) total energy seen and the labelling
 *         that achieved it, which is restored into the model
 */
int64_t anneal(GridMrf &mrf, const AnnealingSchedule &schedule,
               const std::function<void(double)> &set_temperature,
               const std::function<void()> &sweep,
               const rsu::core::RowParallelFor &parallel = {});

} // namespace rsu::mrf

#endif // RSU_MRF_ANNEALING_H
