#include "checks.h"

#include <cstdio>

#include "mrf/grid_mrf.h"

namespace perfbench {

rsu::runtime::InferenceJob
JobSpec::job() const
{
    auto job = rsu::workload::makeJob(*problem, options);
    job.sampler = sampler;
    return job;
}

int
JobSpec::expectedSweeps() const
{
    if (options.schedule)
        return static_cast<int>(options.schedule->temperatures().size()) *
               options.schedule->sweeps_per_stage;
    if (options.anneal)
        return static_cast<int>(
                   problem->default_annealing.temperatures().size()) *
               problem->default_annealing.sweeps_per_stage;
    return options.sweeps;
}

uint64_t
JobSpec::sites() const
{
    return static_cast<uint64_t>(problem->config.width) *
           static_cast<uint64_t>(problem->config.height);
}

uint64_t
labelHash(const std::vector<rsu::mrf::Label> &labels)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto l : labels) {
        h ^= l;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
checkResult(const JobSpec &spec,
            const rsu::runtime::InferenceResult &result)
{
    char buf[256];
    if (result.outcome != rsu::runtime::JobOutcome::Completed)
        return "outcome is not Completed";
    if (result.sweeps_run != spec.expectedSweeps()) {
        std::snprintf(buf, sizeof buf, "ran %d sweeps, asked for %d",
                      result.sweeps_run, spec.expectedSweeps());
        return buf;
    }
    if (result.labels.size() != spec.sites())
        return "label field has the wrong size";

    const auto &problem = *spec.problem;
    rsu::mrf::GridMrf mrf(problem.config, *problem.singleton);
    for (const auto l : result.labels)
        if (mrf.indexOfCode(l) < 0) {
            std::snprintf(buf, sizeof buf,
                          "label code %d is not in the model's set", l);
            return buf;
        }
    mrf.setLabels(result.labels);
    const int64_t energy = mrf.totalEnergy();
    if (energy != result.final_energy) {
        std::snprintf(buf, sizeof buf,
                      "final_energy %lld != recomputed %lld",
                      static_cast<long long>(result.final_energy),
                      static_cast<long long>(energy));
        return buf;
    }

    if (spec.options.faults && !result.degraded)
        return "fault plan did not degrade the job";
    if (!spec.options.faults && result.degraded)
        return "healthy job degraded";

    if (problem.quality) {
        if (!result.quality)
            return "quality metric missing: " + result.quality_error;
        const double q = *result.quality;
        const double bound = result.degraded ? spec.bound.degraded
                                              : spec.bound.healthy;
        const bool ok = problem.quality.higher_is_better ? q >= bound
                                                         : q <= bound;
        if (!ok) {
            std::snprintf(buf, sizeof buf, "%s %.4f outside bound %.4f",
                          problem.quality.name.c_str(), q, bound);
            return buf;
        }
    }
    return {};
}

} // namespace perfbench
