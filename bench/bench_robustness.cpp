/**
 * @file
 * Robustness-overhead benchmark: the serving layer's per-sweep tax.
 *
 * Runs the same Table-path chromatic sweep loop plain versus
 * "checkpointed" — the one per-sweep check the InferenceEngine's
 * traced sweep performs, a live (never-tripped) CancellationToken
 * load plus a deadline comparison (see DESIGN.md section 12). The
 * delta is the price every serving job pays for cancellability.
 *
 * The checkpoint costs nanoseconds against a sweep's milliseconds,
 * so the comparison is mostly scheduler noise unless the method
 * cancels it. Both variants drive one sampler on one pool. The bench
 * runs 20 pairs; a pair alternates the two variants sweep by sweep,
 * and alternate pairs start with the other variant, so both sides
 * sample the same stretch of machine load. Each side's rate is the
 * reciprocal of its median sweep time, so a sweep that lost its core
 * to another process does not decide the pair. The bench reports
 * each pair's overhead plus their median, minimum and maximum; the
 * acceptance bar (<= 2%) applies to the median. Results go to
 * stdout and to BENCH_robustness.json as
 *   {"benchmark": "robustness_overhead", "metadata": {...},
 *    "workload": W, ...,
 *    "pairs": [{"plain_sweeps_per_sec": P,
 *               "checkpointed_sweeps_per_sec": C,
 *               "overhead_percent": X}, ...],
 *    "overhead_percent": {"median": X, "min": X, "max": X}}
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
#include <tuple>
#include <utility>
#include <vector>

#include "bench_meta.h"
#include "mrf/grid_mrf.h"
#include "runtime/cancellation.h"
#include "runtime/chromatic_sampler.h"
#include "runtime/parallel_sweep.h"
#include "runtime/thread_pool.h"
#include "workload/registry.h"

namespace {

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return (v[(v.size() - 1) / 2] + v[v.size() / 2]) / 2.0;
}

} // namespace

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
    // deadline), in interleaved pairs.
    workload::SceneOptions scene;
    scene.width = size;
    scene.height = size;
    scene.labels = labels;
    const auto problem = registry.make(name, scene);
    // Sweeps per variant per pair: about 8M site updates, but at
    // least 64 so a median sweep time means something and at most
    // 256 so small lattices, which the fork-join dominates, stay
    // quick.
    const int sweeps = std::clamp(8'000'000 / (size * size), 64, 256);
    const int pairs = 20;

    mrf::GridMrf mrf(problem.config, *problem.singleton);
    mrf.initializeMaximumLikelihood();
    runtime::ThreadPool pool(threads);
    runtime::ParallelSweepExecutor executor(pool, threads);
    runtime::ChromaticGibbsSampler sampler(
        mrf, executor, 1234, runtime::SamplerKind::SoftwareGibbs, {},
        mrf::SweepPath::Table);
    const runtime::CancellationToken token =
        runtime::CancellationToken::make();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::hours(24);
    sampler.sweep(); // warm-up: page in, prime caches

    // Wall time of one sweep, checkpoint included; a tripped
    // checkpoint skips the sweep, as it stops an engine job.
    const auto timed_sweep = [&](bool checkpointed) {
        const auto start = std::chrono::steady_clock::now();
        const bool stop =
            checkpointed && (token.cancelled() ||
                             std::chrono::steady_clock::now() >= deadline);
        if (!stop)
            sampler.sweep();
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        return elapsed.count();
    };
    // One pair: {plain, checkpointed} sweeps per second.
    const auto measure_pair = [&](bool plain_first) {
        std::vector<double> times[2];
        for (int s = 0; s < sweeps; ++s)
            for (const bool checkpointed : {!plain_first, plain_first})
                times[checkpointed].push_back(timed_sweep(checkpointed));
        return std::pair(1.0 / median(times[0]), 1.0 / median(times[1]));
    };

    std::printf("robustness overhead — Table path, %dx%d, %d "
                "thread(s), %d pairs of %d sweeps per variant\n",
                size, size, threads, pairs, sweeps);
    std::printf("%6s %14s %14s %10s\n", "pair", "plain/s",
                "checkpointed/s", "overhead");
    std::vector<double> plain(pairs), checkpointed(pairs),
        overhead(pairs);
    for (int i = 0; i < pairs; ++i) {
        std::tie(plain[i], checkpointed[i]) = measure_pair(i % 2 == 0);
        overhead[i] = (plain[i] - checkpointed[i]) / plain[i] * 100.0;
        std::printf("%6d %14.2f %14.2f %9.2f%%\n", i, plain[i],
                    checkpointed[i], overhead[i]);
    }
    const double overhead_median = median(overhead);
    const auto [lowest, highest] =
        std::minmax_element(overhead.begin(), overhead.end());
    std::printf("overhead median %.2f%% (min %.2f%%, max %.2f%%); "
                "acceptance bar on the median: 2%% — %s\n",
                overhead_median, *lowest, *highest,
                overhead_median <= 2.0 ? "within" : "OVER");

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
                 "  \"pairs\": [\n",
                 name.c_str(), problem.config.num_labels, size,
                 threads, sweeps);
    for (int i = 0; i < pairs; ++i)
        std::fprintf(json,
                     "    {\"plain_sweeps_per_sec\": %.3f, "
                     "\"checkpointed_sweeps_per_sec\": %.3f, "
                     "\"overhead_percent\": %.3f}%s\n",
                     plain[i], checkpointed[i], overhead[i],
                     i + 1 < pairs ? "," : "");
    std::fprintf(json,
                 "  ],\n"
                 "  \"overhead_percent\": {\"median\": %.3f, "
                 "\"min\": %.3f, \"max\": %.3f}\n}\n",
                 overhead_median, *lowest, *highest);
    std::fclose(json);
    std::printf("wrote BENCH_robustness.json\n");
    return 0;
}
