/**
 * @file
 * Simulated discrete accelerator vs the analytic section 8.2 bound.
 *
 * The analytic model says the accelerator is bandwidth-bound with
 * #units = BW / frequency / bytes-per-unit-cycle; this bench runs
 * the *functional* farm simulator on a segmentation problem and a
 * motion problem, measuring cycles per iteration, unit utilization,
 * bytes per site against the paper's figures, and where the
 * compute-vs-memory crossover actually falls.
 */

#include <cstdio>

#include "arch/accel_sim.h"
#include "arch/accelerator_model.h"
#include "vision/metrics.h"
#include "vision/motion.h"
#include "vision/segmentation.h"
#include "vision/synthetic.h"

namespace {

void
unitScalingStudy()
{
    std::printf("=== Unit scaling: 96x96 segmentation (M=5) "
                "===\n");
    std::printf("%8s %16s %12s %14s %14s\n", "units",
                "cycles/iter", "util", "compute (us)",
                "memory (us)");

    rsu::rng::Xoshiro256 rng(1);
    const auto scene =
        rsu::vision::makeSegmentationScene(96, 96, 5, 2.5, rng);
    rsu::vision::SegmentationModel model(scene.image,
                                         scene.region_means);
    const auto config =
        rsu::vision::segmentationConfig(scene.image, 5, 6.0, 6);

    int bytes_per_site = 0;
    for (int units : {1, 4, 16, 64, 336}) {
        rsu::mrf::GridMrf mrf(config, model);
        mrf.initializeMaximumLikelihood();
        rsu::arch::AcceleratorSimConfig sim_config;
        sim_config.num_units = units;
        rsu::arch::AcceleratorSim sim(mrf, sim_config);
        bytes_per_site = sim.bytesPerSite();
        const auto stats = sim.sweep();
        std::printf("%8d %16llu %11.1f%% %14.2f %14.2f\n", units,
                    static_cast<unsigned long long>(
                        stats.critical_cycles),
                    100.0 * sim.lastUtilization(),
                    stats.compute_seconds * 1e6,
                    stats.memory_seconds * 1e6);
    }
    std::printf("\nbytes/site: %d (paper: 5; class means are "
                "cached constants)\n",
                bytes_per_site);
    std::printf("\nWith M = 5 a unit needs ~5 cycles per site, so "
                "the farm turns memory-bound once units x bytes/"
                "cycle outpace DRAM — the regime the analytic bound "
                "assumes.\n\n");
}

void
boundValidation()
{
    std::printf("=== Analytic bound vs simulation (24x24 motion, "
                "M=49) ===\n");
    rsu::rng::Xoshiro256 rng(2);
    const auto scene =
        rsu::vision::makeMotionScene(24, 24, 1, 3, 1.0, rng);
    rsu::vision::MotionModel model(scene.frame1, scene.frame2, 3);
    const auto config = rsu::vision::motionConfig(scene.frame1, 3);
    rsu::mrf::GridMrf mrf(config, model);
    mrf.initializeMaximumLikelihood();

    rsu::arch::AcceleratorSimConfig sim_config;
    sim_config.num_units = 336;
    rsu::arch::AcceleratorSim sim(mrf, sim_config);
    const auto stats = sim.run(10);

    std::printf("bytes/site: %d (paper: 54; 49 candidate frame-2 "
                "pixels stream)\n",
                sim.bytesPerSite());
    std::printf("simulated:  %.3f us/iteration (%.1f%% "
                "memory-bound)\n",
                stats.seconds() / 10.0 * 1e6,
                100.0 * stats.memory_seconds /
                    (stats.memory_seconds + stats.compute_seconds));

    // Analytic bound for the same problem.
    rsu::arch::Workload w = rsu::arch::motionWorkload(24, 24);
    w.iterations = 1;
    const rsu::arch::AcceleratorModel analytic;
    std::printf("analytic:   %.3f us/iteration (pure bandwidth "
                "bound)\n",
                analytic.totalSeconds(w) * 1e6);
    std::printf("\nThe simulated accelerator lands on the analytic "
                "bound whenever enough units are provisioned; "
                "under-provisioned farms are compute-bound and the "
                "simulator exposes the gap the bound hides.\n\n");

    std::printf("Functional check: accelerator-solved motion EPE "
                "after 40 more iterations: ");
    sim.run(40);
    std::printf("%.3f px\n",
                rsu::vision::meanEndpointError(mrf.labels(),
                                               scene.truth));
}

} // namespace

int
main()
{
    unitScalingStudy();
    boundValidation();
    return 0;
}
