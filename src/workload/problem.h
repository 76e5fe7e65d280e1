/**
 * @file
 * Ownership-safe inference problems — one front door for every
 * workload.
 *
 * The paper's evaluation (sections 7-8) runs one common RSU-G
 * datapath across all of its vision workloads; this layer gives the
 * software stack the same shape. An InferenceProblem is a
 * self-contained bundle of everything the serving runtime needs to
 * run one MRF application instance: the lattice/potential
 * configuration, an *owned* singleton model (no "must outlive"
 * contracts — ownership travels with the problem and with every job
 * made from it), a sensible default annealing schedule, optional
 * ground truth, and a quality-metric hook (vision/metrics.h) that
 * judges a labelling without the caller knowing which application
 * it came from.
 *
 * Problems come from the per-workload factories (factories.h) or by
 * name through the WorkloadRegistry (registry.h); makeJob() turns
 * one into an InferenceEngine job, and solveDirect() runs the same
 * problem on a directly constructed sequential sampler — the
 * cross-check the examples' --reference flag and
 * tests/workload_test.cpp use to pin engine-vs-direct bit-identity.
 */

#ifndef RSU_WORKLOAD_PROBLEM_H
#define RSU_WORKLOAD_PROBLEM_H

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mrf/annealing.h"
#include "mrf/gibbs.h"
#include "mrf/grid_mrf.h"
#include "runtime/inference_engine.h"
#include "vision/image.h"

namespace rsu::workload {

/**
 * How a labelling's solution quality is judged. The closure owns
 * (shares) whatever it needs — ground truth, clean images, the
 * application model — so it stays valid for as long as anyone holds
 * it, including inside a queued InferenceJob.
 */
struct QualityMetric
{
    /** Metric name for reporting: "accuracy", "epe_px", "psnr_db". */
    std::string name;

    /** False for error metrics (e.g. mean endpoint error). */
    bool higher_is_better = true;

    /** Score a labelling (candidate codes, site-major). */
    std::function<double(const std::vector<rsu::mrf::Label> &)>
        evaluate;

    explicit operator bool() const
    {
        return static_cast<bool>(evaluate);
    }
};

/** One self-contained MRF application instance. */
struct InferenceProblem
{
    /** Registry key of the workload that produced it (e.g.
     * "segmentation"); purely informational. */
    std::string workload;

    /** Human-readable instance description. */
    std::string description;

    /** Lattice and potential parameters. */
    rsu::mrf::MrfConfig config;

    /** Owned singleton data source. Never null for a
     * factory-produced problem; shared into every job made from
     * this problem, so the problem itself may be destroyed while
     * jobs are in flight. */
    std::shared_ptr<const rsu::mrf::SingletonModel> singleton;

    /** Workload-tuned annealing schedule (start temperature matches
     * config.temperature); used when a submission opts into
     * annealing without supplying its own schedule. */
    rsu::mrf::AnnealingSchedule default_annealing;

    /** Ground-truth labelling when the instance is synthetic with a
     * known answer; empty otherwise. */
    std::vector<rsu::mrf::Label> ground_truth;

    /** Solution-quality hook (empty evaluate = no metric). */
    QualityMetric quality;

    /** Optional visualization: render a labelling as an image
     * (segmentation paints class means, denoise reconstructs
     * intensities, stereo scales disparities). */
    std::function<rsu::vision::Image(
        const std::vector<rsu::mrf::Label> &)>
        render;

    /** Primary observation image (the noisy input, left view, or
     * first frame); empty for non-image workloads. */
    rsu::vision::Image observation;
};

/** How to run a problem (makeJob / solveDirect parameters). */
struct SubmitOptions
{
    /** Fixed-temperature sweep count (ignored when annealing). */
    int sweeps = 100;

    /** Anneal under the problem's default schedule (or `schedule`
     * below) instead of running at the fixed temperature. */
    bool anneal = false;

    /** Explicit schedule override; implies annealing when set. */
    std::optional<rsu::mrf::AnnealingSchedule> schedule;

    /** Software sweep realization (see mrf/gibbs.h). */
    rsu::mrf::SweepPath sweep_path = rsu::mrf::SweepPath::Table;

    /** Entropy seed. */
    uint64_t seed = 1;

    /** Shard count for engine submission (0 = engine default);
     * solveDirect() is sequential and ignores it. */
    int shards = 0;

    /** InferenceJob::faults passthrough: device-fault campaign for
     * RsuGibbs submissions (solveDirect() ignores it). */
    std::optional<rsu::ret::FaultPlan> faults;
};

/**
 * Build an engine job from @p problem: configuration, shared model
 * ownership, schedule, and the quality hook all travel with the
 * job. Deadlines and cancellation are set on the returned job.
 * Submit the result to any InferenceEngine.
 */
rsu::runtime::InferenceJob makeJob(const InferenceProblem &problem,
                                   const SubmitOptions &options = {});

/**
 * Run @p problem on a directly constructed sequential GibbsSampler,
 * mirroring the engine's execution order (same initialization, same
 * schedule handling). For SweepPath::Reference and SweepPath::Table
 * the result is bit-identical to an engine submission of
 * makeJob(problem, options) with shards = 1 and the same seed —
 * the cross-check contract tests/workload_test.cpp enforces.
 */
std::vector<rsu::mrf::Label>
solveDirect(const InferenceProblem &problem,
            const SubmitOptions &options = {});

} // namespace rsu::workload

#endif // RSU_WORKLOAD_PROBLEM_H
