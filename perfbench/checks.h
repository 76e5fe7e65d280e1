/**
 * @file
 * Job specifications and the output checks every benchmark job
 * passes through.
 */

#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/inference_engine.h"
#include "workload/problem.h"

namespace perfbench {

/**
 * Bound on a job's quality metric: a floor for higher-is-better
 * metrics (accuracy, psnr_db), a ceiling for error metrics (epe_px).
 * Floors come from the values the seed commit measured, with a
 * margin; they guard against wrong answers, not small drifts.
 */
struct QualityBound
{
    double healthy = 0.0;
    double degraded = 0.0; //!< for device jobs that fell back mid-run
};

/** One job the benchmark submits, and what its result must satisfy. */
struct JobSpec
{
    std::shared_ptr<const rsu::workload::InferenceProblem> problem;
    rsu::workload::SubmitOptions options;
    rsu::runtime::SamplerKind sampler =
        rsu::runtime::SamplerKind::SoftwareGibbs;
    QualityBound bound;
    std::string label; //!< e.g. "motion-1024-table"

    /** The engine job for this spec. */
    rsu::runtime::InferenceJob job() const;

    /** Sweeps the result must report. */
    int expectedSweeps() const;

    /** Sites in the lattice. */
    uint64_t sites() const;
};

/** FNV-1a over a labelling. */
uint64_t labelHash(const std::vector<rsu::mrf::Label> &labels);

/**
 * Check one completed result against its spec: outcome Completed,
 * sweeps_run as requested, every label a code of the model,
 * final_energy equal to the energy recomputed from the labels, the
 * quality metric within its bound, and — for specs carrying a fault
 * plan — that the job actually degraded. Returns an empty string
 * when every check passes, else the first failure.
 */
std::string checkResult(const JobSpec &spec,
                        const rsu::runtime::InferenceResult &result);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_H
