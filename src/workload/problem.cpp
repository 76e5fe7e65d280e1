#include "workload/problem.h"

#include <stdexcept>

#include "mrf/schedule.h"

namespace rsu::workload {

rsu::runtime::InferenceJob
makeJob(const InferenceProblem &problem, const SubmitOptions &options)
{
    if (!problem.singleton)
        throw std::invalid_argument(
            "workload::makeJob: problem has no singleton model");

    rsu::runtime::InferenceJob job;
    job.config = problem.config;
    job.singleton = problem.singleton;
    job.sweeps = options.sweeps;
    if (options.schedule)
        job.annealing = *options.schedule;
    else if (options.anneal)
        job.annealing = problem.default_annealing;
    job.sweep_path = options.sweep_path;
    job.seed = options.seed;
    job.shards = options.shards;
    job.faults = options.faults;
    job.quality = problem.quality.evaluate;
    return job;
}

std::vector<rsu::mrf::Label>
solveDirect(const InferenceProblem &problem,
            const SubmitOptions &options)
{
    if (!problem.singleton)
        throw std::invalid_argument(
            "workload::solveDirect: problem has no singleton model");

    rsu::mrf::GridMrf mrf(problem.config, *problem.singleton);
    mrf.initializeMaximumLikelihood();

    rsu::mrf::GibbsSampler sampler(mrf, options.seed,
                                   rsu::mrf::Schedule::Checkerboard,
                                   options.sweep_path);
    if (options.schedule || options.anneal) {
        const rsu::mrf::AnnealingSchedule schedule =
            options.schedule ? *options.schedule
                             : problem.default_annealing;
        rsu::mrf::anneal(
            mrf, schedule,
            [&](double t) { sampler.setTemperature(t); },
            [&] { sampler.sweep(); });
    } else {
        sampler.run(options.sweeps);
    }
    return mrf.labels();
}

} // namespace rsu::workload
