/**
 * @file
 * Shared driver for the workload examples.
 *
 * Every vision example (segmentation, stereo, motion_estimation,
 * denoise) builds an InferenceProblem from its factory and hands it
 * here: the runner submits the problem to an InferenceEngine (the
 * one front door for all workloads), prints a standard report, and
 * honours the flags the examples share:
 *
 *   --reference         cross-check the engine result against a
 *                       directly constructed sequential sampler
 *                       (forces 1 shard + Table path, where the two
 *                       are bit-identical); non-zero exit on any
 *                       mismatch
 *   --check-quality=X   non-zero exit when the job's quality metric
 *                       is worse than X (direction-aware)
 *   --anneal            run the problem's default annealing schedule
 *                       instead of fixed-temperature sweeps
 *   --path=P            sweep realization: table (default),
 *                       reference, or simd
 *   --shards=N          engine shard count (0 = engine default)
 *   --seed=N            sampling-chain seed
 */

#ifndef RSU_EXAMPLES_WORKLOAD_RUNNER_H
#define RSU_EXAMPLES_WORKLOAD_RUNNER_H

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "runtime/inference_engine.h"
#include "workload/problem.h"

namespace rsu::examples {

/** Shared command-line state: flags plus leftover positionals. */
struct RunnerArgs
{
    std::vector<std::string> positionals;
    bool reference = false;
    bool anneal = false;
    std::optional<double> check_quality;
    rsu::mrf::SweepPath sweep_path = rsu::mrf::SweepPath::Table;
    int shards = 0;
    uint64_t seed = 7;

    /** Positional @p index as int, or @p fallback when absent. */
    int positionalInt(std::size_t index, int fallback) const
    {
        return index < positionals.size()
                   ? std::atoi(positionals[index].c_str())
                   : fallback;
    }

    /** Positional @p index as double, or @p fallback when absent. */
    double positionalDouble(std::size_t index,
                            double fallback) const
    {
        return index < positionals.size()
                   ? std::atof(positionals[index].c_str())
                   : fallback;
    }
};

/** Parse flags (listed above) from anywhere in @p argv; anything
 * else is kept as a positional. Exits with code 2 on an unknown or
 * malformed flag. */
inline RunnerArgs
parseRunnerArgs(int argc, char **argv)
{
    RunnerArgs args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            args.positionals.push_back(arg);
            continue;
        }
        if (arg == "--reference") {
            args.reference = true;
        } else if (arg == "--anneal") {
            args.anneal = true;
        } else if (arg.rfind("--check-quality=", 0) == 0) {
            args.check_quality = std::atof(arg.c_str() + 16);
        } else if (arg.rfind("--path=", 0) == 0) {
            const std::string path = arg.substr(7);
            if (path == "table")
                args.sweep_path = rsu::mrf::SweepPath::Table;
            else if (path == "reference")
                args.sweep_path = rsu::mrf::SweepPath::Reference;
            else if (path == "simd")
                args.sweep_path = rsu::mrf::SweepPath::Simd;
            else {
                std::fprintf(stderr,
                             "unknown sweep path '%s' (want "
                             "table|reference|simd)\n",
                             path.c_str());
                std::exit(2);
            }
        } else if (arg.rfind("--shards=", 0) == 0) {
            args.shards = std::atoi(arg.c_str() + 9);
        } else if (arg.rfind("--seed=", 0) == 0) {
            args.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
            std::exit(2);
        }
    }
    return args;
}

/**
 * Submit @p problem to a fresh engine under @p args, report the
 * result, and run the optional cross-check and quality gate.
 * Returns the process exit code (0 = all checks passed) and leaves
 * the final labelling in @p labels_out for rendering.
 */
inline int
runWorkload(const rsu::workload::InferenceProblem &problem,
            int sweeps, const RunnerArgs &args,
            std::vector<rsu::mrf::Label> *labels_out = nullptr)
{
    rsu::workload::SubmitOptions submit;
    submit.sweeps = sweeps;
    submit.anneal = args.anneal;
    submit.sweep_path = args.sweep_path;
    submit.seed = args.seed;
    submit.shards = args.shards;
    if (args.reference) {
        // Bit-identity with the sequential sampler holds at one
        // shard on the Reference/Table paths; pin both.
        submit.shards = 1;
        if (submit.sweep_path == rsu::mrf::SweepPath::Simd)
            submit.sweep_path = rsu::mrf::SweepPath::Table;
    }

    rsu::runtime::InferenceEngine engine;
    std::printf("%s: %s\n", problem.workload.c_str(),
                problem.description.c_str());
    std::printf("engine: %d pool thread(s); %s path, %s, shards=%d, "
                "seed=%llu\n",
                engine.threads(),
                submit.sweep_path == rsu::mrf::SweepPath::Simd
                    ? "simd"
                    : (submit.sweep_path ==
                               rsu::mrf::SweepPath::Table
                           ? "table"
                           : "reference"),
                submit.anneal ? "annealed" : "fixed-temperature",
                submit.shards,
                static_cast<unsigned long long>(submit.seed));

    const auto result =
        engine.submit(makeJob(problem, submit)).get();
    std::printf("energy %lld -> %lld after %d sweep(s) on %d "
                "shard(s), %.3fs\n",
                static_cast<long long>(result.initial_energy),
                static_cast<long long>(result.final_energy),
                result.sweeps_run, result.shards,
                result.elapsed_seconds);
    const auto &metric = problem.quality;
    if (result.quality)
        std::printf("quality: %s = %.3f (%s is better)\n",
                    metric.name.c_str(), *result.quality,
                    metric.higher_is_better ? "higher" : "lower");
    if (labels_out)
        *labels_out = result.labels;

    int exit_code = 0;
    if (args.reference) {
        const auto direct = solveDirect(problem, submit);
        std::size_t mismatches = 0;
        for (std::size_t i = 0; i < direct.size(); ++i)
            mismatches += direct[i] != result.labels[i];
        if (mismatches == 0) {
            std::printf("reference cross-check: engine result is "
                        "bit-identical to the direct sampler\n");
        } else {
            std::printf("reference cross-check FAILED: %zu of %zu "
                        "sites differ\n",
                        mismatches, direct.size());
            exit_code = 1;
        }
    }
    if (args.check_quality) {
        if (!result.quality) {
            std::printf("quality gate FAILED: problem has no "
                        "quality metric\n");
            exit_code = 1;
        } else {
            const bool pass =
                metric.higher_is_better
                    ? *result.quality >= *args.check_quality
                    : *result.quality <= *args.check_quality;
            std::printf("quality gate (%s %s %.3f): %s\n",
                        metric.name.c_str(),
                        metric.higher_is_better ? ">=" : "<=",
                        *args.check_quality,
                        pass ? "pass" : "FAILED");
            if (!pass)
                exit_code = 1;
        }
    }
    return exit_code;
}

} // namespace rsu::examples

#endif // RSU_EXAMPLES_WORKLOAD_RUNNER_H
