/**
 * @file
 * The traced run's layer ladder: each layer driven directly through
 * its public API on the shapes the workloads use, one span per call,
 * plus the identity checks that tie adjacent layers together.
 *
 *   bulk shapes (512², M = 2 / 8 / 49):
 *     mrf.table_set.build      SweepTableSet construction (pool rows)
 *     mrf.sweep.{table,simd}   single-chain GibbsSampler sweeps
 *     runtime.chromatic.*      ChromaticGibbsSampler at S = cores
 *     runtime.engine.probe     one engine job (tables cached), against
 *     runtime.chromatic.direct the same chain driven directly
 *   serve's smallest lattice (48²):
 *     runtime.chromatic.sweep.small  single chromatic sweeps
 *   device models (128², segmentation / stereo M = 5, motion M = 49):
 *     mrf.rsu_sweep            single-chain RsuGibbsSampler (Direct)
 *     core.rsu_g.sample        RsuG::sample over every site, healthy
 *                              and under the device fault plan
 *     arch.accel_sim           AcceleratorSim, run twice per model
 *
 * Identity checks: engine Table job at S shards == chromatic Table
 * at S, and at S = 1 == GibbsSampler; engine Simd job == chromatic
 * Simd at S; a repeated healthy RsuGibbs job and a repeated
 * AcceleratorSim run return identical labels and counters.
 */

#include <cstdio>

#include "bench.h"
#include "checks.h"
#include "core/rsu_g.h"
#include "mrf/fast_sweep.h"
#include "mrf/gibbs.h"
#include "mrf/rsu_gibbs.h"
#include "runtime/chromatic_sampler.h"
#include "runtime/parallel_sweep.h"

namespace perfbench {

namespace {

using rsu::mrf::GridMrf;
using rsu::mrf::SweepPath;
using rsu::runtime::ChromaticGibbsSampler;
using rsu::runtime::InferenceEngine;
using rsu::runtime::ParallelSweepExecutor;
using rsu::runtime::SamplerKind;
using rsu::workload::InferenceProblem;
using rsu::workload::SceneOptions;

constexpr double kProbeSeconds = 0.25; //!< minimum timed work per probe
constexpr int kIdentitySweeps = 2;

const char *
pathName(SweepPath path)
{
    return path == SweepPath::Table ? "table" : "simd";
}

double
sitesOf(const InferenceProblem &p)
{
    return static_cast<double>(p.config.width) * p.config.height;
}

/** Run @p sweep (one sweep per call) until kProbeSeconds passed,
 * inside one span carrying the sites updated. */
void
timedSweeps(Tracer &tracer, const std::string &name, uint64_t parent,
            double sites_per_sweep, int shards,
            const std::function<void()> &sweep)
{
    ScopedSpan span(tracer, name, parent);
    const double start = nowSeconds();
    int n = 0;
    do {
        sweep();
        ++n;
    } while (nowSeconds() - start < kProbeSeconds);
    span.set("sites", sites_per_sweep * n);
    span.set("shards", shards);
}

/** ML-initialized model state for a problem. */
GridMrf
initialState(const InferenceProblem &p, const rsu::mrf::SweepTableSet *set)
{
    GridMrf mrf(p.config, *p.singleton);
    if (set)
        mrf.initializeMaximumLikelihood(set->singleton());
    else
        mrf.initializeMaximumLikelihood();
    return mrf;
}

void
softwareLadder(const Options &options, Tracer &tracer, Report &report,
               uint64_t parent, rsu::runtime::ThreadPool &pool,
               InferenceEngine &engine)
{
    const int shards = pool.size();
    struct Model
    {
        const char *workload;
        int labels;
    };
    const Model models[] = {{"segmentation", 2}, {"synthetic", 8},
                            {"motion", 49}};
    uint64_t tag = 0;
    for (const auto &m : models) {
        SceneOptions scene;
        scene.width = scene.height = 512;
        scene.labels = m.labels;
        scene.seed = mixSeed(options.seed, 7000 + ++tag);
        const auto problem = makeProblem(tracer, m.workload, scene);
        const double sites = sitesOf(*problem);
        const uint64_t seed = mixSeed(options.seed, 7100 + tag);

        std::shared_ptr<const rsu::mrf::SweepTableSet> set;
        {
            GridMrf mrf(problem->config, *problem->singleton);
            ScopedSpan span(tracer, "mrf.table_set.build", parent);
            set = std::make_shared<const rsu::mrf::SweepTableSet>(
                mrf, rsu::runtime::parallelRowRunner(pool));
            span.set("sites", sites);
        }
        // Cache the model's tables in the engine before its probes.
        {
            rsu::workload::SubmitOptions o;
            o.sweeps = 1;
            engine.submit(rsu::workload::makeJob(*problem, o)).get();
        }

        for (const SweepPath path : {SweepPath::Table, SweepPath::Simd}) {
            const std::string p = pathName(path);
            {
                GridMrf mrf = initialState(*problem, set.get());
                rsu::mrf::GibbsSampler chain(
                    mrf, seed, rsu::mrf::Schedule::Checkerboard, path);
                timedSweeps(tracer, "mrf.sweep." + p, parent, sites, 1,
                            [&] { chain.sweep(); });
            }
            {
                GridMrf mrf = initialState(*problem, set.get());
                ParallelSweepExecutor executor(pool, shards);
                ChromaticGibbsSampler chain(mrf, executor, seed,
                                            SamplerKind::SoftwareGibbs,
                                            {}, path, set);
                timedSweeps(tracer, "runtime.chromatic." + p, parent,
                            sites, shards, [&] { chain.sweep(); });
            }

            // Engine job against the same chain driven directly.
            rsu::workload::SubmitOptions o;
            o.sweeps = kIdentitySweeps;
            o.sweep_path = path;
            o.seed = seed;
            o.shards = shards;
            rsu::runtime::InferenceResult job;
            {
                ScopedSpan span(tracer, "runtime.engine.probe", parent);
                job = engine.submit(rsu::workload::makeJob(*problem, o))
                          .get();
                span.set("sites", static_cast<double>(job.work.site_updates));
            }
            std::vector<rsu::mrf::Label> direct;
            {
                ScopedSpan span(tracer, "runtime.chromatic.direct", parent);
                GridMrf mrf = initialState(*problem, set.get());
                ParallelSweepExecutor executor(pool, shards);
                ChromaticGibbsSampler chain(mrf, executor, seed,
                                            SamplerKind::SoftwareGibbs,
                                            {}, path, set);
                chain.run(kIdentitySweeps);
                direct = mrf.labels();
                span.set("sites", static_cast<double>(chain.work().site_updates));
            }
            if (labelHash(job.labels) != labelHash(direct))
                report.fail(std::string("identity: engine ") + p +
                            " job != chromatic " + p + " at S=" +
                            std::to_string(shards) + " (" + m.workload + ")");

            if (path == SweepPath::Table) {
                o.shards = 1;
                const auto single =
                    engine.submit(rsu::workload::makeJob(*problem, o)).get();
                GridMrf mrf = initialState(*problem, nullptr);
                rsu::mrf::GibbsSampler chain(
                    mrf, seed, rsu::mrf::Schedule::Checkerboard, path);
                chain.run(kIdentitySweeps);
                if (labelHash(single.labels) != labelHash(mrf.labels()))
                    report.fail(std::string("identity: engine table job "
                                            "at S=1 != GibbsSampler (") +
                                m.workload + ")");
            }
        }
    }

    // One chromatic sweep at serve's smallest lattice.
    SceneOptions scene;
    scene.width = scene.height = 48;
    scene.seed = mixSeed(options.seed, 7200);
    const auto small = makeProblem(tracer, "segmentation", scene);
    auto set = std::make_shared<const rsu::mrf::SweepTableSet>(
        GridMrf(small->config, *small->singleton));
    GridMrf mrf = initialState(*small, set.get());
    ParallelSweepExecutor executor(pool, shards);
    ChromaticGibbsSampler chain(mrf, executor, mixSeed(options.seed, 7201),
                                SamplerKind::SoftwareGibbs, {},
                                SweepPath::Table, set);
    for (int i = 0; i < 400; ++i) {
        ScopedSpan span(tracer, "runtime.chromatic.sweep.small", parent);
        chain.sweep();
        span.set("sites", sitesOf(*small));
    }
}

/** RsuG::sample over every site of @p mrf's current labelling. */
void
sampleProbe(Tracer &tracer, uint64_t parent, const GridMrf &mrf,
            const rsu::core::Data2Table &data2, uint64_t seed,
            const rsu::ret::UnitFaults *faults)
{
    rsu::core::RsuG unit(rsu::mrf::RsuGibbsSampler::unitConfigFor(mrf),
                         seed);
    unit.initialize(mrf.numLabels(), mrf.temperature());
    unit.setLabelCodes(mrf.labelCodes());
    if (faults)
        unit.injectFaults(*faults);
    ScopedSpan span(tracer, "core.rsu_g.sample", parent);
    for (int y = 0; y < mrf.height(); ++y)
        for (int x = 0; x < mrf.width(); ++x)
            unit.sample(mrf.referencedInputsAt(x, y),
                        data2.row(mrf.index(x, y)));
    const auto &st = unit.stats();
    span.set("faulted", faults ? 1.0 : 0.0);
    span.set("samples", static_cast<double>(st.samples));
    span.set("label_evals", static_cast<double>(st.label_evals));
    span.set("issue_cycles", static_cast<double>(st.issue_cycles));
    span.set("stall_cycles", static_cast<double>(st.stall_cycles));
    span.set("saturated_ttfs", static_cast<double>(st.saturated_ttfs));
    span.set("reraces", static_cast<double>(st.reraces));
}

void
deviceLadder(const Options &options, Tracer &tracer, Report &report,
             uint64_t parent, InferenceEngine &engine)
{
    struct Model
    {
        const char *workload;
        int labels;
    };
    const Model models[] = {{"segmentation", 5}, {"stereo", 5},
                            {"motion", 49}};
    const auto plan = deviceFaultPlan(mixSeed(options.seed, 2000));
    uint64_t tag = 0;
    for (const auto &m : models) {
        SceneOptions scene;
        scene.width = scene.height = 128;
        scene.labels = m.labels;
        scene.seed = mixSeed(options.seed, 8000 + ++tag);
        const auto problem = makeProblem(tracer, m.workload, scene);
        const uint64_t seed = mixSeed(options.seed, 8100 + tag);
        const double sites = sitesOf(*problem);

        {
            GridMrf mrf = initialState(*problem, nullptr);
            rsu::core::RsuG unit(
                rsu::mrf::RsuGibbsSampler::unitConfigFor(mrf), seed);
            rsu::mrf::RsuGibbsSampler chain(
                mrf, unit, rsu::mrf::Schedule::Checkerboard,
                rsu::mrf::RsuGibbsSampler::Mode::Direct);
            timedSweeps(tracer, "mrf.rsu_sweep", parent, sites, 1,
                        [&] { chain.sweep(); });
        }
        {
            const GridMrf mrf = initialState(*problem, nullptr);
            const auto data2 = mrf.buildData2Table();
            sampleProbe(tracer, parent, mrf, data2, seed, nullptr);
            const auto faults = plan.faultsFor(0, 1);
            sampleProbe(tracer, parent, mrf, data2, seed, &faults);
        }

        // The simulator, twice: its statistics must repeat exactly.
        rsu::arch::AcceleratorIterationStats runs[2];
        uint64_t hashes[2] = {0, 0};
        for (int r = 0; r < 2; ++r) {
            ScopedSpan span(tracer, "arch.accel_sim", parent);
            GridMrf mrf = initialState(*problem, nullptr);
            rsu::arch::AcceleratorSim sim(mrf, accelConfig(seed));
            runs[r] = sim.run(1);
            hashes[r] = labelHash(mrf.labels());
            span.set("sites", sites);
            span.set("critical_cycles",
                     static_cast<double>(runs[r].critical_cycles));
            span.set("bytes", static_cast<double>(runs[r].bytes));
        }
        if (runs[0].critical_cycles != runs[1].critical_cycles ||
            runs[0].total_cycles != runs[1].total_cycles ||
            runs[0].bytes != runs[1].bytes || hashes[0] != hashes[1])
            report.fail(std::string("identity: AcceleratorSim did not "
                                    "repeat (") + m.workload + ")");

        // A healthy RsuGibbs job, twice: same labels and counters.
        rsu::workload::SubmitOptions o;
        o.sweeps = kIdentitySweeps;
        o.seed = seed;
        rsu::runtime::InferenceResult jobs[2];
        for (auto &job : jobs) {
            auto j = rsu::workload::makeJob(*problem, o);
            j.sampler = SamplerKind::RsuGibbs;
            job = engine.submit(std::move(j)).get();
        }
        const auto &a = jobs[0].device_stats, &b = jobs[1].device_stats;
        if (labelHash(jobs[0].labels) != labelHash(jobs[1].labels) ||
            a.samples != b.samples || a.label_evals != b.label_evals ||
            a.issue_cycles != b.issue_cycles ||
            a.stall_cycles != b.stall_cycles ||
            a.saturated_ttfs != b.saturated_ttfs || a.samples == 0)
            report.fail(std::string("identity: RsuGibbs job did not "
                                    "repeat (") + m.workload + ")");
    }
}

} // namespace

void
runLadder(const Options &options, Tracer &tracer, Report &report)
{
    ScopedSpan ladder(tracer, "bench.ladder");
    rsu::runtime::ThreadPool pool(poolThreads());
    InferenceEngine engine(engineOptions());
    softwareLadder(options, tracer, report, ladder.id(), pool, engine);
    deviceLadder(options, tracer, report, ladder.id(), engine);
}

} // namespace perfbench
