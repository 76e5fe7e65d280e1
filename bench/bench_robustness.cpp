/**
 * @file
 * Robustness-overhead benchmark: the serving layer's per-sweep tax.
 *
 * Runs the same Table-path chromatic sweep loop plain versus
 * "checkpointed" — the one per-sweep check the InferenceEngine's
 * traced sweep performs, a live (never-tripped) CancellationToken
 * load plus a deadline comparison (see DESIGN.md section 12). The
 * delta is the price every serving job pays for cancellability; the
 * acceptance bar is <= 2%. Results go to stdout and to
 * BENCH_robustness.json as
 *   {"benchmark": "robustness_overhead", "metadata": {...},
 *    "workload": W, ...,
 *    "results": [{"variant": "plain"|"checkpointed", ...}, ...],
 *    "overhead_percent": X}
 * where "metadata" is the shared object (hardware concurrency, SIMD
 * ISA, build type, compiler flags) from bench_meta.h.
 *
 * Usage:
 *   bench_robustness [workload] [size] [threads] [labels]
 * Defaults: segmentation; a 1024 x 1024 lattice; 8 threads; labels
 * 0 (the workload's default label count).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_meta.h"
#include "mrf/grid_mrf.h"
#include "runtime/cancellation.h"
#include "runtime/chromatic_sampler.h"
#include "runtime/parallel_sweep.h"
#include "runtime/thread_pool.h"
#include "workload/registry.h"

int
main(int argc, char **argv)
{
    using namespace rsu;

    std::string name = "segmentation";
    int size = 1024;
    int threads = 8;
    int labels = 0;
    if (argc > 1)
        name = argv[1];
    if (argc > 2)
        size = std::atoi(argv[2]);
    if (argc > 3)
        threads = std::atoi(argv[3]);
    if (argc > 4)
        labels = std::atoi(argv[4]);

    const auto &registry = workload::WorkloadRegistry::builtin();
    if (!registry.contains(name) || size < 1 || threads < 1 ||
        labels < 0) {
        std::fprintf(stderr,
                     "usage: %s [workload] [size] [threads] "
                     "[labels]\n"
                     "workloads:",
                     argv[0]);
        for (const auto &known : registry.names())
            std::fprintf(stderr, " %s", known.c_str());
        std::fprintf(stderr, "\nsize/threads must be positive "
                             "integers, labels 0 = workload "
                             "default\n");
        return 2;
    }

    bench::warnIfNotRelease();

    // The InferenceEngine's traced sweep adds, per sweep, one
    // CancellationToken load and one steady_clock deadline
    // comparison. Measure the Table-path sweep loop plain vs with
    // exactly that checkpoint armed (live token, far-future
    // deadline); best-of-5 per variant to shave scheduler noise.
    workload::SceneOptions scene;
    scene.width = size;
    scene.height = size;
    scene.labels = labels;
    const auto problem = registry.make(name, scene);
    const int sweeps = std::max(4, 8'000'000 / (size * size) + 1);
    const int reps = 5;

    const auto measure_once = [&](bool checkpointed) {
        mrf::GridMrf mrf(problem.config, *problem.singleton);
        if (problem.initial_labels.empty())
            mrf.initializeMaximumLikelihood();
        else
            mrf.setLabels(problem.initial_labels);
        runtime::ThreadPool pool(threads);
        runtime::ParallelSweepExecutor executor(pool, threads);
        runtime::ChromaticGibbsSampler sampler(
            mrf, executor, 1234,
            runtime::SamplerKind::SoftwareGibbs, {},
            mrf::SweepPath::Table);
        runtime::CancellationToken token;
        std::chrono::steady_clock::time_point deadline{};
        if (checkpointed) {
            token = runtime::CancellationToken::make();
            deadline = std::chrono::steady_clock::now() +
                       std::chrono::hours(24);
        }
        sampler.sweep(); // warm-up: page in, prime caches

        const auto start = std::chrono::steady_clock::now();
        for (int s = 0; s < sweeps; ++s) {
            if (checkpointed) {
                if (token.cancelled())
                    break;
                if (std::chrono::steady_clock::now() >= deadline)
                    break;
            }
            sampler.sweep();
        }
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        return sweeps / elapsed.count();
    };

    std::printf("robustness overhead — Table path, %dx%d, %d "
                "thread(s), %d sweeps, best of %d\n",
                size, size, threads, sweeps, reps);
    // Interleave the two variants so load drift (frequency scaling,
    // container neighbours) biases both equally, then compare bests.
    double plain_rate = 0.0;
    double checkpointed_rate = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
        plain_rate = std::max(plain_rate, measure_once(false));
        checkpointed_rate =
            std::max(checkpointed_rate, measure_once(true));
    }
    const double overhead_percent =
        (plain_rate - checkpointed_rate) / plain_rate * 100.0;
    std::printf("%14s %14.2f sweeps/sec\n", "plain", plain_rate);
    std::printf("%14s %14.2f sweeps/sec\n", "checkpointed",
                checkpointed_rate);
    std::printf("%14s %13.2f%% (acceptance bar: 2%%)\n", "overhead",
                overhead_percent);

    FILE *json = std::fopen("BENCH_robustness.json", "w");
    if (!json) {
        std::fprintf(stderr, "cannot write BENCH_robustness.json\n");
        return 1;
    }
    std::fprintf(json,
                 "{\n  \"benchmark\": \"robustness_overhead\",\n");
    bench::writeMetaJson(json);
    std::fprintf(json,
                 "  \"workload\": \"%s\",\n"
                 "  \"labels\": %d,\n"
                 "  \"size\": %d,\n"
                 "  \"threads\": %d,\n"
                 "  \"sweeps\": %d,\n"
                 "  \"repetitions\": %d,\n"
                 "  \"results\": [\n"
                 "    {\"variant\": \"plain\", "
                 "\"sweeps_per_sec\": %.3f},\n"
                 "    {\"variant\": \"checkpointed\", "
                 "\"sweeps_per_sec\": %.3f}\n"
                 "  ],\n"
                 "  \"overhead_percent\": %.3f\n}\n",
                 name.c_str(), problem.config.num_labels, size,
                 threads, sweeps, reps, plain_rate,
                 checkpointed_rate, overhead_percent);
    std::fclose(json);
    std::printf("wrote BENCH_robustness.json\n");
    return 0;
}
