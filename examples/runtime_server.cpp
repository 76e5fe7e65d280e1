/**
 * @file
 * Concurrent inference serving demo, registry-driven.
 *
 * Simulates the production scenario from the ROADMAP: many callers
 * push independent jobs at one InferenceEngine, which batches them
 * across a shared chromatic thread pool. Jobs round-robin over the
 * named workloads (WorkloadRegistry — any of segmentation, motion,
 * stereo, denoise, synthetic) with per-job seeds; every third job
 * anneals under its workload's default schedule. Because each
 * workload contributes ONE problem instance, repeat jobs against it
 * hit the engine's cross-job SweepTableSet cache — the cache
 * counters are printed at the end. Per-job energy, timing, outcome,
 * and the workload's own quality metric are reported as futures
 * resolve.
 *
 * Robustness drills (see DESIGN.md section 12):
 *   --deadline-ms=N   give every job an N-millisecond deadline;
 *                     jobs that overrun resolve with partial
 *                     results (outcome=deadline)
 *   --cancel-after=K  every job cancels itself after K sweeps
 *                     (outcome=cancelled, exactly K sweeps run)
 *   --inject-faults   run jobs on the emulated RSU-G device path
 *                     under an aggressive device-fault campaign;
 *                     the engine must degrade at least one job to
 *                     the software path (exit 1 otherwise)
 *
 * Usage:
 *   runtime_server [jobs] [size] [workloads-csv|all] [sweeps]
 *                  [--deadline-ms=N] [--cancel-after=K]
 *                  [--inject-faults]
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "runtime/inference_engine.h"
#include "workload/problem.h"
#include "workload/registry.h"

namespace {

/** Split "a,b,c" (or expand "all") into registry names. */
std::vector<std::string>
selectWorkloads(const std::string &csv)
{
    const auto &registry = rsu::workload::WorkloadRegistry::builtin();
    if (csv == "all" || csv.empty())
        return registry.names();
    std::vector<std::string> names;
    std::size_t start = 0;
    while (start <= csv.size()) {
        const std::size_t comma = csv.find(',', start);
        const std::size_t end =
            comma == std::string::npos ? csv.size() : comma;
        if (end > start)
            names.push_back(csv.substr(start, end - start));
        start = end + 1;
    }
    for (const auto &name : names)
        if (!registry.contains(name)) {
            std::fprintf(stderr,
                         "unknown workload '%s' (known:", name.c_str());
            for (const auto &known : registry.names())
                std::fprintf(stderr, " %s", known.c_str());
            std::fprintf(stderr, ")\n");
            std::exit(2);
        }
    return names;
}

const char *
outcomeName(rsu::runtime::JobOutcome outcome)
{
    switch (outcome) {
    case rsu::runtime::JobOutcome::Completed:
        return "ok";
    case rsu::runtime::JobOutcome::Cancelled:
        return "cancelled";
    case rsu::runtime::JobOutcome::DeadlineExceeded:
        return "deadline";
    }
    return "?";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace rsu;

    // Flags may appear anywhere; positionals keep their order.
    double deadline_ms = 0.0;
    int cancel_after = 0;
    bool inject_faults = false;
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--deadline-ms=", 0) == 0)
            deadline_ms = std::atof(arg.c_str() + 14);
        else if (arg.rfind("--cancel-after=", 0) == 0)
            cancel_after = std::atoi(arg.c_str() + 15);
        else if (arg == "--inject-faults")
            inject_faults = true;
        else
            positional.push_back(arg);
    }
    const int jobs =
        positional.size() > 0 ? std::atoi(positional[0].c_str()) : 8;
    const int size =
        positional.size() > 1 ? std::atoi(positional[1].c_str()) : 96;
    const std::string csv =
        positional.size() > 2 ? positional[2] : "all";
    const int sweeps =
        positional.size() > 3 ? std::atoi(positional[3].c_str()) : 30;

    const auto names = selectWorkloads(csv);
    const auto &registry = workload::WorkloadRegistry::builtin();

    // One problem instance per workload; jobs round-robin over them
    // so repeat submissions share cached sweep tables.
    std::vector<workload::InferenceProblem> problems;
    for (const auto &name : names) {
        workload::SceneOptions scene;
        scene.width = size;
        scene.height = size;
        problems.push_back(registry.make(name, scene));
    }

    // The drill campaign: every SPAD lane dead and a low failure
    // threshold, so afflicted units declare failure within a few
    // sweeps and the engine has to fall back to the software path.
    ret::FaultPlan plan;
    plan.seed = 7;
    plan.stuck_led_fraction = 0.25;
    plan.dead_spad_fraction = 1.0;
    plan.max_reraces = 1;
    plan.failure_threshold = 4;

    runtime::InferenceEngine::Options options;
    options.threads = runtime::ThreadPool::hardwareThreads();
    options.max_concurrent_jobs = 2;
    runtime::InferenceEngine engine(options);
    std::printf("engine: %d pool thread(s), %d concurrent job(s)\n",
                engine.threads(), options.max_concurrent_jobs);
    std::printf("submitting %d jobs over %zu workload(s) at %dx%d, "
                "%d sweeps\n",
                jobs, names.size(), size, size, sweeps);
    if (deadline_ms > 0.0)
        std::printf("deadline: %.1f ms per job\n", deadline_ms);
    if (cancel_after > 0)
        std::printf("cancelling every job after %d sweep(s)\n",
                    cancel_after);
    if (inject_faults)
        std::printf("fault drill: RSU path, dead SPAD lanes + stuck "
                    "LED bits (plan seed %llu)\n",
                    static_cast<unsigned long long>(plan.seed));
    std::printf("\n");

    std::vector<runtime::JobHandle> handles;
    std::vector<const workload::InferenceProblem *> submitted;
    std::vector<bool> annealed;
    for (int j = 0; j < jobs; ++j) {
        const auto &problem = problems[j % problems.size()];
        workload::SubmitOptions submit;
        submit.sweeps = sweeps;
        submit.seed = 42 + j;
        submit.anneal = j % 3 == 2;
        auto job = makeJob(problem, submit);
        if (deadline_ms > 0.0)
            job.deadline_seconds = deadline_ms / 1000.0;
        if (cancel_after > 0) {
            // Each job trips its own token after K sweeps; the
            // engine stops it before sweep K+1, so exactly K sweeps
            // run.
            auto token = runtime::CancellationToken::make();
            job.cancel = token;
            job.on_sweep = [token, cancel_after](int done) mutable {
                if (done >= cancel_after)
                    token.cancel();
            };
        }
        if (inject_faults) {
            job.sampler = runtime::SamplerKind::RsuGibbs;
            job.faults = plan;
        }
        handles.push_back(engine.submit(std::move(job)));
        submitted.push_back(&problem);
        annealed.push_back(submit.anneal);
    }

    std::printf("%4s %-13s %6s %6s %12s %12s %7s %8s %9s %5s %14s\n",
                "job", "workload", "mode", "shrd", "E_initial",
                "E_final", "sweeps", "time(s)", "outcome", "degr",
                "quality");
    double total_seconds = 0.0;
    uint64_t total_updates = 0;
    int degraded_jobs = 0;
    int refused_jobs = 0;
    for (int j = 0; j < jobs; ++j) {
        runtime::InferenceResult result;
        try {
            result = handles[j].get();
        } catch (const runtime::EngineError &e) {
            // Typed refusal: the job never ran (e.g. its deadline
            // expired while it sat in the queue).
            ++refused_jobs;
            std::printf("%4llu %-13s %6s %6s %12s %12s %7s %8s %9s "
                        "%5s %14s\n",
                        static_cast<unsigned long long>(
                            handles[j].id()),
                        submitted[j]->workload.c_str(),
                        annealed[j] ? "anneal" : "gibbs", "-", "-",
                        "-", "-", "-",
                        runtime::engineErrorCodeName(e.code()), "-",
                        "-");
            continue;
        }
        total_seconds += result.elapsed_seconds;
        total_updates += result.work.site_updates;
        if (result.degraded)
            ++degraded_jobs;
        char quality[32] = "-";
        if (result.quality)
            std::snprintf(quality, sizeof quality, "%s=%.3f",
                          submitted[j]->quality.name.c_str(),
                          *result.quality);
        std::printf("%4llu %-13s %6s %6d %12lld %12lld %7d %8.3f "
                    "%9s %5s %14s\n",
                    static_cast<unsigned long long>(handles[j].id()),
                    submitted[j]->workload.c_str(),
                    annealed[j] ? "anneal" : "gibbs", result.shards,
                    static_cast<long long>(result.initial_energy),
                    static_cast<long long>(result.final_energy),
                    result.sweeps_run, result.elapsed_seconds,
                    outcomeName(result.outcome),
                    result.degraded ? "yes" : "no", quality);
    }

    const auto cache = engine.tableCacheStats();
    std::printf("\n%d jobs (%d refused), %llu site updates, %.3f "
                "job-seconds total\n",
                jobs, refused_jobs,
                static_cast<unsigned long long>(total_updates),
                total_seconds);
    std::printf("table cache: %llu hit(s), %llu miss(es), %d "
                "entrie(s) resident\n",
                static_cast<unsigned long long>(cache.hits),
                static_cast<unsigned long long>(cache.misses),
                cache.entries);
    if (inject_faults) {
        if (degraded_jobs == 0) {
            std::fprintf(stderr, "fault drill FAILED: no job fell "
                                 "back to the software path\n");
            return 1;
        }
        std::printf("fault drill: %d/%d job(s) degraded=true\n",
                    degraded_jobs, jobs);
    }
    return 0;
}
