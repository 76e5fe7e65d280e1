/**
 * @file
 * Chromatic runtime thread-scaling benchmark.
 *
 * Measures software-Gibbs sweeps/sec of the ParallelSweepExecutor
 * path as a function of worker-thread count on square lattices of
 * any registered workload (WorkloadRegistry) — the software
 * realization of the paper's Figure 4 parallelism argument, and the
 * curve later sharding/serving PRs must not regress. Results go to
 * stdout as a table and to BENCH_runtime_scaling.json as
 *   {"benchmark": "runtime_scaling", "workload": W, "labels": M,
 *    "hardware_threads": H,
 *    "results": [{"size": N, "threads": T, "sweeps": S,
 *                 "sweeps_per_sec": R, "speedup": X}, ...]}
 * where speedup is relative to the 1-thread row of the same size.
 *
 * A second section measures the robustness-layer tax: the same
 * Table-path sweep loop run plain versus "checkpointed" — the one
 * per-sweep check the InferenceEngine's traced sweep performs, a
 * live (never-tripped) CancellationToken load plus a deadline
 * comparison (see DESIGN.md section 12). The delta is the price
 * every serving job pays for cancellability; the PR 5 acceptance bar
 * is <= 2%. Results go to BENCH_robustness.json as
 *   {"benchmark": "robustness_overhead", "workload": W, ...,
 *    "results": [{"variant": "plain"|"checkpointed", ...}, ...],
 *    "overhead_percent": X}
 *
 * Both JSONs carry the shared "metadata" object (hardware
 * concurrency, SIMD ISA, build type, compiler flags) from
 * bench_meta.h.
 *
 * Usage:
 *   bench_runtime_scaling [workload] [sizes-csv] [threads-csv]
 *                         [labels]
 * Defaults: segmentation; sizes 128,512,1024; threads 1,2,4,8;
 * labels 0 (the workload's default label count). The robustness
 * section uses the largest requested size and thread count.
 */

#include <chrono>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <algorithm>

#include "bench_meta.h"
#include "mrf/grid_mrf.h"
#include "runtime/cancellation.h"
#include "runtime/chromatic_sampler.h"
#include "runtime/parallel_sweep.h"
#include "runtime/thread_pool.h"
#include "workload/registry.h"

namespace {

std::vector<int>
parseCsv(const char *arg)
{
    std::vector<int> values;
    std::string token;
    for (const char *c = arg;; ++c) {
        if (*c == ',' || *c == '\0') {
            if (!token.empty())
                values.push_back(std::atoi(token.c_str()));
            token.clear();
            if (*c == '\0')
                break;
        } else {
            token += *c;
        }
    }
    return values;
}

struct Row
{
    int size;
    int threads;
    int sweeps;
    double sweeps_per_sec;
    double speedup;
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace rsu;

    std::string name = "segmentation";
    std::vector<int> sizes = {128, 512, 1024};
    std::vector<int> threads = {1, 2, 4, 8};
    int labels = 0;
    if (argc > 1)
        name = argv[1];
    if (argc > 2)
        sizes = parseCsv(argv[2]);
    if (argc > 3)
        threads = parseCsv(argv[3]);
    if (argc > 4)
        labels = std::atoi(argv[4]);

    const auto &registry = workload::WorkloadRegistry::builtin();
    const auto all_positive = [](const std::vector<int> &values) {
        if (values.empty())
            return false;
        for (const int v : values)
            if (v < 1)
                return false;
        return true;
    };
    if (!registry.contains(name) || !all_positive(sizes) ||
        !all_positive(threads) || labels < 0) {
        std::fprintf(stderr,
                     "usage: %s [workload] [sizes-csv] "
                     "[threads-csv] [labels]\n"
                     "workloads:",
                     argv[0]);
        for (const auto &known : registry.names())
            std::fprintf(stderr, " %s", known.c_str());
        std::fprintf(stderr, "\nsizes/threads must be positive "
                             "integers, labels 0 = workload "
                             "default\n");
        return 2;
    }

    bench::warnIfNotRelease();
    const int hardware = runtime::ThreadPool::hardwareThreads();
    int num_labels = 0; // filled from the first instance
    std::printf("chromatic runtime scaling — software Gibbs, '%s' "
                "workload, %d hardware thread(s)\n\n",
                name.c_str(), hardware);
    std::printf("%8s %8s %7s %14s %8s\n", "size", "threads",
                "sweeps", "sweeps/sec", "speedup");

    std::vector<Row> rows;
    for (const int size : sizes) {
        workload::SceneOptions scene;
        scene.width = size;
        scene.height = size;
        scene.labels = labels;
        const auto problem = registry.make(name, scene);
        num_labels = problem.config.num_labels;

        // Enough sweeps that a measurement is tens of milliseconds
        // even at the largest size, without making 1024^2 painful.
        const int sweeps =
            std::max(2, 4'000'000 / (size * size) + 1);

        double base_rate = 0.0;
        for (const int t : threads) {
            mrf::GridMrf mrf(problem.config, *problem.singleton);
            if (problem.initial_labels.empty())
                mrf.initializeMaximumLikelihood();
            else
                mrf.setLabels(problem.initial_labels);
            runtime::ThreadPool pool(t);
            runtime::ParallelSweepExecutor executor(pool, t);
            runtime::ChromaticGibbsSampler sampler(mrf, executor,
                                                   1234);
            sampler.sweep(); // warm-up: page in, prime caches

            const auto start = std::chrono::steady_clock::now();
            sampler.run(sweeps);
            const std::chrono::duration<double> elapsed =
                std::chrono::steady_clock::now() - start;

            const double rate = sweeps / elapsed.count();
            if (t == threads.front())
                base_rate = rate;
            const double speedup = rate / base_rate;
            rows.push_back({size, t, sweeps, rate, speedup});
            std::printf("%8d %8d %7d %14.2f %7.2fx\n", size, t,
                        sweeps, rate, speedup);
        }
    }

    FILE *json = std::fopen("BENCH_runtime_scaling.json", "w");
    if (!json) {
        std::fprintf(stderr,
                     "cannot write BENCH_runtime_scaling.json\n");
        return 1;
    }
    std::fprintf(json, "{\n  \"benchmark\": \"runtime_scaling\",\n");
    bench::writeMetaJson(json);
    std::fprintf(json,
                 "  \"workload\": \"%s\",\n"
                 "  \"labels\": %d,\n"
                 "  \"hardware_threads\": %d,\n"
                 "  \"results\": [\n",
                 name.c_str(), num_labels, hardware);
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        std::fprintf(json,
                     "    {\"size\": %d, \"threads\": %d, "
                     "\"sweeps\": %d, \"sweeps_per_sec\": %.3f, "
                     "\"speedup\": %.3f}%s\n",
                     r.size, r.threads, r.sweeps, r.sweeps_per_sec,
                     r.speedup, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("\nwrote BENCH_runtime_scaling.json (%zu rows)\n",
                rows.size());

    // ---- Robustness overhead: the serving layer's per-sweep tax.
    //
    // The InferenceEngine's traced sweep adds, per sweep, one
    // CancellationToken load and one steady_clock deadline
    // comparison. Measure the Table-path sweep loop plain vs with
    // exactly that checkpoint armed (live token, far-future
    // deadline) at the largest requested size/thread count;
    // best-of-5 per variant to shave scheduler noise.
    const int rsize = *std::max_element(sizes.begin(), sizes.end());
    const int rthreads =
        *std::max_element(threads.begin(), threads.end());
    workload::SceneOptions rscene;
    rscene.width = rsize;
    rscene.height = rsize;
    rscene.labels = labels;
    const auto rproblem = registry.make(name, rscene);
    const int rsweeps = std::max(4, 8'000'000 / (rsize * rsize) + 1);
    const int reps = 5;

    const auto measure_once = [&](bool checkpointed) {
        mrf::GridMrf mrf(rproblem.config, *rproblem.singleton);
        if (rproblem.initial_labels.empty())
            mrf.initializeMaximumLikelihood();
        else
            mrf.setLabels(rproblem.initial_labels);
        runtime::ThreadPool pool(rthreads);
        runtime::ParallelSweepExecutor executor(pool, rthreads);
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
        for (int s = 0; s < rsweeps; ++s) {
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
        return rsweeps / elapsed.count();
    };

    std::printf("\nrobustness overhead — Table path, %dx%d, %d "
                "thread(s), %d sweeps, best of %d\n",
                rsize, rsize, rthreads, rsweeps, reps);
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

    FILE *rjson = std::fopen("BENCH_robustness.json", "w");
    if (!rjson) {
        std::fprintf(stderr, "cannot write BENCH_robustness.json\n");
        return 1;
    }
    std::fprintf(rjson,
                 "{\n  \"benchmark\": \"robustness_overhead\",\n");
    bench::writeMetaJson(rjson);
    std::fprintf(rjson,
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
                 name.c_str(), rproblem.config.num_labels, rsize,
                 rthreads, rsweeps, reps, plain_rate,
                 checkpointed_rate, overhead_percent);
    std::fclose(rjson);
    std::printf("wrote BENCH_robustness.json\n");
    return 0;
}
