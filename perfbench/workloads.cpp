/**
 * @file
 * The three benchmark workloads.
 *
 * bulk   — closed loop, one job in flight, 512² and 1024² lattices
 *          on the Table and Simd paths: the site kernels and the
 *          chromatic executor do nearly all the work.
 * serve  — open loop, Poisson arrivals at fixed rates over a pool of
 *          small instances larger than the engine's table cache:
 *          dispatch, per-job fixed costs and queueing set latency.
 * device — closed loop over emulated RSU-G jobs (a fixed share with
 *          a fault plan that degrades them mid-run) interleaved with
 *          AcceleratorSim runs: the device emulation dominates.
 *
 * Every workload: the seed makes all inputs (scene content, chain
 * seeds, arrival times and order), never the job mix, so two seeds
 * offer the same work; set-up runs three times and reports the
 * median; the measured phase repeats whole rounds (closed loops) or
 * whole rate windows (open loop); every result is checked after the
 * phase, so checks never sit inside a timed region.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "arch/accel_sim.h"
#include "bench.h"
#include "checks.h"
#include "mrf/grid_mrf.h"
#include "rng/splitmix64.h"
#include "rng/xoshiro256.h"
#include "runtime/inference_engine.h"

namespace perfbench {

using rsu::mrf::SweepPath;
using rsu::runtime::EngineError;
using rsu::runtime::InferenceEngine;
using rsu::runtime::InferenceResult;
using rsu::runtime::SamplerKind;
using rsu::workload::SceneOptions;

int
poolThreads()
{
    return rsu::runtime::ThreadPool::hardwareThreads();
}

uint64_t
mixSeed(uint64_t seed, uint64_t tag)
{
    rsu::rng::SplitMix64 mix(seed ^ (tag * 0xd1342543de82ef95ULL));
    mix.next();
    return mix.next();
}

std::shared_ptr<const rsu::workload::InferenceProblem>
makeProblem(Tracer &tracer, const std::string &name,
            const SceneOptions &scene)
{
    ScopedSpan span(tracer, "workload.make");
    auto problem = std::make_shared<const rsu::workload::InferenceProblem>(
        rsu::workload::WorkloadRegistry::builtin().make(name, scene));
    span.set("sites", static_cast<double>(problem->config.width) *
                          problem->config.height);
    return problem;
}

rsu::runtime::EngineOptions
engineOptions()
{
    rsu::runtime::EngineOptions options;
    options.threads = poolThreads();
    return options;
}

rsu::ret::FaultPlan
deviceFaultPlan(uint64_t seed)
{
    rsu::ret::FaultPlan plan;
    plan.seed = seed;
    plan.stuck_led_fraction = 0.25;
    plan.dead_spad_fraction = 1.0;
    plan.max_reraces = 1;
    plan.failure_threshold = 4;
    return plan;
}

rsu::arch::AcceleratorSimConfig
accelConfig(uint64_t seed)
{
    rsu::arch::AcceleratorSimConfig config;
    config.num_units = 64;
    config.seed = seed;
    return config;
}

namespace {

constexpr int kSetups = 3; //!< set-ups per run; setup_s is their median

/** What happened to one submitted job. */
struct JobRecord
{
    std::size_t spec = 0;
    uint64_t number = 0;  //!< benchmark job number (trace job id)
    uint64_t span_id = 0; //!< id of its runtime.engine.job span
    bool sweep_spans = false;
    double due = 0.0;
    double sent = 0.0;
    double done = 0.0;
    bool refused = false;
    std::string error;
    std::optional<InferenceResult> result;
};

/** Per-sweep spans from the engine's on_sweep hook: each span runs
 * from the previous sweep's end to this one's (the first sweep only
 * starts the clock). This hook is the only tracing work inside a
 * job, so it is what bench.trace_overhead_frac measures. */
void
attachSweepSpans(rsu::runtime::InferenceJob &job, Tracer &tracer,
                 const JobRecord &record)
{
    auto last = std::make_shared<int64_t>(0);
    const uint64_t parent = record.span_id, number = record.number;
    job.on_sweep = [&tracer, parent, number, last](int done) {
        const int64_t now = nowNs();
        if (*last != 0) {
            Span s;
            s.id = tracer.newId();
            s.parent = parent;
            s.job = number;
            s.name = "runtime.engine.sweep";
            s.start_ns = *last;
            s.end_ns = now;
            s.attrs = {{"sweep", static_cast<double>(done)}};
            tracer.record(std::move(s));
        }
        *last = now;
    };
}

/** The runtime.engine.job span of a finished record. */
void
recordJobSpan(Tracer &tracer, const JobSpec &spec,
              const JobRecord &rec, uint64_t parent, double rate = 0.0)
{
    Span s;
    s.id = rec.span_id;
    s.parent = parent;
    s.job = rec.number;
    s.name = "runtime.engine.job";
    s.start_ns = static_cast<int64_t>(rec.due * 1e9);
    s.end_ns = static_cast<int64_t>((rec.refused ? rec.sent : rec.done) *
                                    1e9);
    s.attrs = {{"refused", rec.refused ? 1.0 : 0.0},
               {"errored", !rec.refused && !rec.result ? 1.0 : 0.0},
               {"sweep_spans", rec.sweep_spans ? 1.0 : 0.0},
               {"lateness_s", rec.sent - rec.due},
               {"rate", rate}};
    if (rec.result) {
        const auto &r = *rec.result;
        const bool lookup =
            (spec.sampler == SamplerKind::SoftwareGibbs &&
             spec.options.sweep_path != SweepPath::Reference) ||
            r.degraded;
        s.attrs.insert(
            s.attrs.end(),
            {{"latency_s", rec.done - rec.due},
             {"elapsed_s", r.elapsed_seconds},
             {"phase_s", r.phase_timing.total()},
             {"table_build_s", r.table_build_seconds},
             {"lookup", lookup ? 1.0 : 0.0},
             {"cache_hit", r.table_cache_hit ? 1.0 : 0.0},
             {"degraded", r.degraded ? 1.0 : 0.0},
             {"sites", static_cast<double>(r.work.site_updates)},
             {"shards", static_cast<double>(r.shards)}});
    }
    tracer.record(std::move(s));
}

/** Submit one job; the record holds the refusal if any. */
std::optional<rsu::runtime::JobHandle>
submitRecorded(InferenceEngine &engine, const JobSpec &spec,
               JobRecord &rec, Tracer &tracer)
{
    auto job = spec.job();
    if (rec.sweep_spans)
        attachSweepSpans(job, tracer, rec);
    try {
        return engine.submit(std::move(job));
    } catch (const EngineError &e) {
        rec.refused = true;
        rec.error = e.what();
        return std::nullopt;
    }
}

/** Resolve a handle into its record. */
void
collect(rsu::runtime::JobHandle &handle, JobRecord &rec)
{
    try {
        auto result = handle.future.get();
        rec.done = nowSeconds();
        rec.result = std::move(result);
    } catch (const std::exception &e) {
        rec.done = nowSeconds();
        rec.error = e.what();
    }
}

/**
 * Check every record, fold outcomes into the report's tally, and
 * verify that repeated (instance, seed, shards, path) jobs — the
 * same spec in another round — returned the same labelling and, on
 * the device path, the same simulated counters.
 */
void
checkRecords(const std::vector<JobSpec> &specs,
             const std::vector<JobRecord> &records, Report &report)
{
    std::map<std::size_t, const InferenceResult *> first_of;
    for (const auto &rec : records) {
        const JobSpec &spec = specs[rec.spec];
        if (rec.refused) {
            ++report.tally.refused;
            continue;
        }
        if (!rec.result) {
            ++report.tally.errored;
            report.fail(spec.label + ": " + rec.error);
            continue;
        }
        const auto &r = *rec.result;
        if (r.outcome != rsu::runtime::JobOutcome::Completed) {
            ++report.tally.partial;
            report.fail(spec.label + ": partial result");
            continue;
        }
        std::string why = checkResult(spec, r);
        auto [it, fresh] = first_of.emplace(rec.spec, &r);
        if (why.empty() && !fresh) {
            const auto &a = *it->second;
            if (labelHash(a.labels) != labelHash(r.labels))
                why = "repeat returned a different labelling";
            else if (a.device_stats.label_evals !=
                         r.device_stats.label_evals ||
                     a.device_stats.issue_cycles !=
                         r.device_stats.issue_cycles ||
                     a.device_stats.stall_cycles !=
                         r.device_stats.stall_cycles)
                why = "repeat returned different device counters";
        }
        if (why.empty()) {
            ++report.tally.ok;
        } else {
            ++report.tally.check_failed;
            report.fail(spec.label + ": " + why);
        }
    }
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

std::string
tailBase(const Tail &tail)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "p%g of %zu jobs, %zu beyond%s",
                  tail.percentile, tail.samples, tail.beyond,
                  tail.supported ? "" : " (unsupported)");
    return buf;
}

/** Warm-up: the first job per model, a one-sweep Table job, so the
 * model's tables are cached before timing starts. */
void
warmUp(InferenceEngine &engine, const std::vector<JobSpec> &specs)
{
    std::vector<const rsu::workload::InferenceProblem *> seen;
    std::vector<rsu::runtime::JobHandle> handles;
    for (const auto &spec : specs) {
        if (std::find(seen.begin(), seen.end(), spec.problem.get()) !=
            seen.end())
            continue;
        seen.push_back(spec.problem.get());
        rsu::workload::SubmitOptions o;
        o.sweeps = 1;
        o.seed = spec.options.seed;
        handles.push_back(
            engine.submit(rsu::workload::makeJob(*spec.problem, o)));
    }
    for (auto &h : handles)
        h.get();
}

/** One set-up's products. */
struct Setup
{
    std::vector<JobSpec> specs;
    std::unique_ptr<InferenceEngine> engine;
};

/** Run @p make kSetups times; keep the last, report the median. */
Setup
timedSetup(Tracer &tracer, Report &report,
           const std::function<Setup(Tracer &)> &make)
{
    std::vector<double> seconds;
    Setup setup;
    for (int k = 0; k < kSetups; ++k) {
        setup = Setup{}; // join the previous engine first
        ScopedSpan span(tracer, "bench.setup");
        const double t0 = nowSeconds();
        setup = make(tracer);
        warmUp(*setup.engine, setup.specs);
        seconds.push_back(nowSeconds() - t0);
    }
    char base[64];
    std::snprintf(base, sizeof base, "median of %d set-ups", kSetups);
    report.metrics.push_back({"setup_s", median(seconds), "s", base});
    return setup;
}

/** The records and timing of one closed-loop phase. */
struct ClosedLoop
{
    std::vector<JobRecord> records;
    std::vector<double> round_wall; //!< seconds per round
    double wall = 0.0;
    int rounds = 0;
};

/**
 * Closed loop, one client, one job in flight: whole rounds of the
 * specs until @p seconds have passed (at least two rounds, so every
 * spec repeats). @p after_job runs after each job inside the timed
 * phase (the device workload's interleaved simulator runs).
 */
ClosedLoop
runClosedLoop(InferenceEngine &engine, const std::vector<JobSpec> &specs,
              double seconds, Tracer &tracer,
              const std::function<void(std::size_t)> &after_job)
{
    ClosedLoop loop;
    ScopedSpan phase(tracer, "bench.phase");
    const double start = nowSeconds();
    while (loop.rounds < 2 || nowSeconds() - start < seconds) {
        const double round_start = nowSeconds();
        for (std::size_t i = 0; i < specs.size(); ++i) {
            JobRecord rec;
            rec.spec = i;
            rec.number = loop.records.size() + 1;
            rec.span_id = tracer.newId();
            // Traced runs alternate whole rounds with and without
            // per-sweep spans, so each half runs the same jobs.
            rec.sweep_spans = tracer.enabled() && loop.rounds % 2 == 1;
            rec.due = rec.sent = nowSeconds();
            auto handle = submitRecorded(engine, specs[i], rec, tracer);
            if (handle)
                collect(*handle, rec);
            loop.records.push_back(std::move(rec));
            if (after_job)
                after_job(i);
        }
        ++loop.rounds;
        loop.round_wall.push_back(nowSeconds() - round_start);
    }
    loop.wall = nowSeconds() - start;
    for (const auto &rec : loop.records)
        recordJobSpan(tracer, specs[rec.spec], rec, phase.id());
    return loop;
}

/** One line per spec: median latency, rate and quality. */
void
specNotes(const std::vector<JobSpec> &specs,
          const std::vector<JobRecord> &records, Report &report)
{
    for (std::size_t i = 0; i < specs.size(); ++i) {
        std::vector<double> latency, quality;
        double sites = 0.0, seconds = 0.0;
        int degraded = 0, degraded_at = -1;
        for (const auto &rec : records) {
            if (rec.spec != i || !rec.result)
                continue;
            latency.push_back(rec.done - rec.due);
            sites += static_cast<double>(rec.result->work.site_updates);
            seconds += rec.done - rec.due;
            degraded += rec.result->degraded ? 1 : 0;
            degraded_at = rec.result->degraded_at_sweep;
            if (rec.result->quality)
                quality.push_back(*rec.result->quality);
        }
        char line[256];
        std::snprintf(line, sizeof line,
                      "  %-28s jobs %3zu  p50 %.4f s  %.4g sites/s  "
                      "%s %.4f",
                      specs[i].label.c_str(), latency.size(),
                      median(latency), seconds > 0 ? sites / seconds : 0.0,
                      quality.empty() ? "no quality metric"
                                      : specs[i].problem->quality.name.c_str(),
                      median(quality));
        std::string note = line;
        if (degraded)
            note += ", degraded at sweep " + std::to_string(degraded_at);
        report.notes.push_back(note);
    }
}

/** The end-to-end metrics a closed loop reports. */
void
closedLoopMetrics(const ClosedLoop &loop, uint64_t ok_jobs, Report &report)
{
    uint64_t sites = 0;
    std::vector<double> latency;
    for (const auto &rec : loop.records) {
        if (!rec.result)
            continue;
        sites += rec.result->work.site_updates;
        latency.push_back(rec.done - rec.due);
    }
    const Tail tail = tailOf(latency);
    std::string rates = "round sites/s:";
    const double per_round = static_cast<double>(sites) / loop.rounds;
    for (const double w : loop.round_wall)
        rates += " " + std::to_string(static_cast<long>(per_round / w));
    report.notes.push_back(rates);
    char base[96];
    std::snprintf(base, sizeof base, "%d rounds, %.2f s", loop.rounds,
                  loop.wall);
    report.metrics.push_back(
        {"sites_per_s", static_cast<double>(sites) / loop.wall,
         "sites/s", base});
    report.metrics.push_back(
        {"job_p50_s", median(latency), "s",
         std::to_string(latency.size()) + " jobs"});
    report.metrics.push_back(
        {"job_tail_s", tail.value, "s", tailBase(tail)});
    report.metrics.push_back(
        {"goodput_jps",
         static_cast<double>(ok_jobs) / loop.wall, "jobs/s",
         "passing jobs / phase wall time"});
}

// ---------------------------------------------------------------- bulk

struct BulkModel
{
    const char *workload;
    int labels;
    int sweeps;
    QualityBound bound;
};

// Sweeps per job are set so each model's job does comparable work
// (M=49 sites cost several times an M=2 site). Quality bounds are
// the seed commit's values with a margin (README.md).
const BulkModel kBulkModels[] = {
    {"segmentation", 2, 12, {0.97, 0.97}},
    {"synthetic", 8, 9, {}},
    {"motion", 49, 3, {3.2, 3.2}},
};
const int kBulkSizes[] = {512, 1024};

Setup
makeBulk(Tracer &tracer, uint64_t seed)
{
    Setup setup;
    setup.engine = std::make_unique<InferenceEngine>(engineOptions());
    uint64_t tag = 0;
    for (const int size : kBulkSizes)
        for (const auto &m : kBulkModels) {
            SceneOptions scene;
            scene.width = scene.height = size;
            scene.labels = m.labels;
            scene.seed = mixSeed(seed, ++tag);
            auto problem = makeProblem(tracer, m.workload, scene);
            for (const SweepPath path : {SweepPath::Table, SweepPath::Simd}) {
                JobSpec spec;
                spec.problem = problem;
                spec.options.sweeps = m.sweeps;
                spec.options.sweep_path = path;
                spec.options.seed = mixSeed(seed, 1000 + tag);
                spec.bound = m.bound;
                spec.label = std::string(m.workload) + "-" +
                             std::to_string(size) +
                             (path == SweepPath::Table ? "-table" : "-simd");
                setup.specs.push_back(std::move(spec));
            }
        }
    // A 13th job per round, repeating the flagship 512² segmentation
    // Table job: with 12 equally weighted job types the p50 and p75
    // ranks fall exactly on a boundary between two types, where they
    // read the extreme sample of one type and jump between runs.
    setup.specs.push_back(setup.specs.front());
    return setup;
}

Report
runBulk(const Options &options, Tracer &tracer)
{
    Report report;
    Setup setup = timedSetup(tracer, report, [&](Tracer &t) {
        return makeBulk(t, options.seed);
    });
    const ClosedLoop loop = runClosedLoop(*setup.engine, setup.specs,
                                          options.seconds, tracer, {});
    checkRecords(setup.specs, loop.records, report);
    specNotes(setup.specs, loop.records, report);
    closedLoopMetrics(loop, report.tally.ok, report);
    return report;
}

// -------------------------------------------------------------- device

struct DeviceModel
{
    const char *workload;
    int labels;
    int sweeps;
    QualityBound bound;
};

const DeviceModel kDeviceModels[] = {
    {"segmentation", 5, 12, {0.85, 0.75}},
    {"stereo", 5, 12, {0.75, 0.75}},
    {"motion", 49, 6, {2.0, 4.5}},
};
const int kDeviceSizes[] = {128, 256};
const int kAccelSize = 128;
const int kAccelSweeps = 1;

/** Jobs (by position in the round) that carry the fault plan. */
bool
deviceFaulted(std::size_t position)
{
    return position == 2 || position == 3; // motion-128, segmentation-256
}

struct DeviceSetup
{
    Setup setup;
    std::vector<std::shared_ptr<const rsu::workload::InferenceProblem>>
        accel_problems;
};

DeviceSetup
makeDevice(Tracer &tracer, uint64_t seed)
{
    DeviceSetup d;
    d.setup.engine = std::make_unique<InferenceEngine>(engineOptions());
    uint64_t tag = 0;
    for (const int size : kDeviceSizes)
        for (const auto &m : kDeviceModels) {
            SceneOptions scene;
            scene.width = scene.height = size;
            scene.labels = m.labels;
            scene.seed = mixSeed(seed, ++tag);
            auto problem = makeProblem(tracer, m.workload, scene);
            JobSpec spec;
            spec.problem = problem;
            spec.sampler = SamplerKind::RsuGibbs;
            spec.options.sweeps = m.sweeps;
            spec.options.seed = mixSeed(seed, 1000 + tag);
            if (deviceFaulted(d.setup.specs.size()))
                spec.options.faults = deviceFaultPlan(mixSeed(seed, 2000));
            spec.bound = m.bound;
            spec.label = std::string(m.workload) + "-" +
                         std::to_string(size) + "-rsu" +
                         (spec.options.faults ? "-faulted" : "");
            if (size == kAccelSize)
                d.accel_problems.push_back(problem);
            d.setup.specs.push_back(std::move(spec));
        }
    // Four jobs per round finish within a few percent of each other
    // (the 128² ones and the degraded 256² one). Repeating stereo-256
    // three more times and motion-256 once more puts the p50 rank inside
    // stereo-256's block and the p90 rank inside motion-256's, instead
    // of at the edge of that cluster (see makeBulk).
    for (int k = 0; k < 3; ++k)
        d.setup.specs.push_back(d.setup.specs[4]);
    d.setup.specs.push_back(d.setup.specs[5]);
    return d;
}

/** One AcceleratorSim run's observable outputs. */
struct AccelRecord
{
    std::size_t model = 0;
    uint64_t critical_cycles = 0;
    uint64_t total_cycles = 0;
    int64_t bytes = 0;
    uint64_t label_hash = 0;
    bool labels_valid = true;
    std::string error;
};

AccelRecord
runAccel(const rsu::workload::InferenceProblem &problem,
         std::size_t model, uint64_t seed, Tracer &tracer,
         uint64_t parent)
{
    AccelRecord rec;
    rec.model = model;
    try {
        ScopedSpan span(tracer, "arch.accel_sim", parent);
        rsu::mrf::GridMrf mrf(problem.config, *problem.singleton);
        mrf.initializeMaximumLikelihood();
        rsu::arch::AcceleratorSim sim(mrf, accelConfig(seed));
        const auto stats = sim.run(kAccelSweeps);
        rec.critical_cycles = stats.critical_cycles;
        rec.total_cycles = stats.total_cycles;
        rec.bytes = stats.bytes;
        rec.label_hash = labelHash(mrf.labels());
        for (const auto l : mrf.labels())
            rec.labels_valid = rec.labels_valid && mrf.indexOfCode(l) >= 0;
        span.set("sites", static_cast<double>(mrf.size()) * kAccelSweeps);
        span.set("critical_cycles", static_cast<double>(stats.critical_cycles));
        span.set("bytes", static_cast<double>(stats.bytes));
    } catch (const std::exception &e) {
        rec.error = e.what();
    }
    return rec;
}

Report
runDevice(const Options &options, Tracer &tracer)
{
    Report report;
    std::vector<std::shared_ptr<const rsu::workload::InferenceProblem>>
        accel_problems;
    Setup setup = timedSetup(tracer, report, [&](Tracer &t) {
        DeviceSetup d = makeDevice(t, options.seed);
        accel_problems = std::move(d.accel_problems);
        return std::move(d.setup);
    });

    // One simulator run after every second job, cycling through the
    // models, so each round interleaves the same simulator work.
    std::vector<AccelRecord> accel;
    const uint64_t accel_seed = mixSeed(options.seed, 3000);
    const ClosedLoop loop = runClosedLoop(
        *setup.engine, setup.specs, options.seconds, tracer,
        [&](std::size_t i) {
            if (i % 2 == 1) {
                const std::size_t m = (i / 2) % accel_problems.size();
                accel.push_back(runAccel(*accel_problems[m], m,
                                         accel_seed, tracer, 0));
            }
        });
    checkRecords(setup.specs, loop.records, report);
    specNotes(setup.specs, loop.records, report);
    const uint64_t ok_jobs = report.tally.ok;

    // Simulator runs: valid labels, and the simulated statistics of
    // every repeat identical to the model's first run.
    std::map<std::size_t, const AccelRecord *> first_of;
    for (const auto &rec : accel) {
        std::string why = rec.error;
        if (why.empty() && !rec.labels_valid)
            why = "label outside the model's code set";
        if (why.empty() && rec.critical_cycles == 0)
            why = "no simulated cycles";
        auto [it, fresh] = first_of.emplace(rec.model, &rec);
        if (why.empty() && !fresh &&
            (it->second->critical_cycles != rec.critical_cycles ||
             it->second->total_cycles != rec.total_cycles ||
             it->second->bytes != rec.bytes ||
             it->second->label_hash != rec.label_hash))
            why = "simulated statistics did not repeat";
        if (why.empty()) {
            ++report.tally.ok;
        } else {
            ++report.tally.check_failed;
            report.fail("accel_sim model " + std::to_string(rec.model) +
                        ": " + why);
        }
    }
    closedLoopMetrics(loop, ok_jobs, report);
    return report;
}

// --------------------------------------------------------------- serve

const char *const kServeWorkloads[] = {"segmentation", "motion",
                                       "stereo", "denoise", "synthetic"};
const int kServeSizes[] = {48, 64, 80, 96, 112, 128, 160, 192};
constexpr int kServeInstances = 40; // > the 16-entry table cache
constexpr int kServeSweeps = 20;
constexpr double kZipfExponent = 1.0;
// Offered rates (jobs/s): below, near and above the knee.
const double kServeRates[] = {25.0, 50.0, 100.0};
constexpr double kServeTailLimit = 0.25; // s, at the tail percentile
constexpr int kServeQueueBound = 512;

const QualityBound kServeBounds[] = {
    {0.72, 0.72}, // segmentation accuracy
    {2.3, 2.3},   // motion epe_px
    {0.7, 0.7},   // stereo accuracy
    {19.0, 19.0}, // denoise psnr_db
    {},           // synthetic (no metric)
};

Setup
makeServe(Tracer &tracer, uint64_t seed)
{
    Setup setup;
    auto options = engineOptions();
    options.max_queued_jobs = kServeQueueBound;
    options.backpressure = rsu::runtime::BackpressurePolicy::RejectNewest;
    setup.engine = std::make_unique<InferenceEngine>(options);
    // Instance i: workload i mod 5, size (3i) mod 8 — all 40
    // (workload, size) pairs once; popularity rank i.
    for (int i = 0; i < kServeInstances; ++i) {
        const int w = i % 5;
        SceneOptions scene;
        scene.width = scene.height = kServeSizes[(3 * i) % 8];
        scene.seed = mixSeed(seed, static_cast<uint64_t>(i) + 1);
        JobSpec spec;
        spec.problem = makeProblem(tracer, kServeWorkloads[w], scene);
        spec.options.sweeps = kServeSweeps;
        spec.bound = kServeBounds[w];
        spec.label = std::string(kServeWorkloads[w]) + "-" +
                     std::to_string(scene.width);
        setup.specs.push_back(std::move(spec));
    }
    return setup;
}

/**
 * The window's job list: exact Zipf counts over the instances
 * (largest-remainder rounding), every third occurrence of an
 * instance annealing, shuffled by the seed.
 */
std::vector<std::pair<std::size_t, bool>>
serveJobs(std::size_t count, uint64_t seed)
{
    std::vector<double> weight(kServeInstances);
    double total = 0.0;
    for (int i = 0; i < kServeInstances; ++i)
        total += weight[i] = 1.0 / std::pow(i + 1.0, kZipfExponent);
    std::vector<std::size_t> n(kServeInstances);
    std::vector<std::pair<double, int>> remainder;
    std::size_t assigned = 0;
    for (int i = 0; i < kServeInstances; ++i) {
        const double exact = count * weight[i] / total;
        n[i] = static_cast<std::size_t>(exact);
        assigned += n[i];
        remainder.emplace_back(exact - n[i], i);
    }
    std::sort(remainder.rbegin(), remainder.rend());
    for (std::size_t k = 0; assigned < count; ++k, ++assigned)
        ++n[remainder[k % remainder.size()].second];

    std::vector<std::pair<std::size_t, bool>> jobs;
    for (int i = 0; i < kServeInstances; ++i)
        for (std::size_t k = 0; k < n[i]; ++k)
            jobs.emplace_back(i, k % 3 == 2);
    rsu::rng::Xoshiro256 rng(seed);
    for (std::size_t k = jobs.size(); k > 1; --k)
        std::swap(jobs[k - 1], jobs[rng.below(k)]);
    return jobs;
}

/**
 * Threads that block on submitted futures in submission order, so
 * each completion is stamped the moment it resolves, without
 * polling. The engine dispatches FIFO, so the running jobs are always
 * among the oldest unresolved ones: kWaiters > the engine's concurrent
 * jobs guarantees every running job has a waiter.
 */
class Waiters
{
  public:
    explicit Waiters(std::vector<JobRecord> &records) : records_(records)
    {
        for (int i = 0; i < kWaiters; ++i)
            threads_.emplace_back([this] { loop(); });
    }

    ~Waiters() { finish(); }

    Waiters(const Waiters &) = delete;
    Waiters &operator=(const Waiters &) = delete;

    void
    add(std::size_t record, rsu::runtime::JobHandle handle)
    {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            queue_.emplace_back(record, std::move(handle));
        }
        cv_.notify_one();
    }

    /** Wait until every added handle resolved; idempotent. */
    void
    finish()
    {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            done_ = true;
        }
        cv_.notify_all();
        for (auto &t : threads_)
            if (t.joinable())
                t.join();
    }

  private:
    static constexpr int kWaiters = 4;

    void
    loop()
    {
        for (;;) {
            std::pair<std::size_t, rsu::runtime::JobHandle> next;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                cv_.wait(lock, [&] { return done_ || !queue_.empty(); });
                if (queue_.empty())
                    return;
                next = std::move(queue_.front());
                queue_.pop_front();
            }
            collect(next.second, records_[next.first]);
        }
    }

    std::vector<JobRecord> &records_;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<std::pair<std::size_t, rsu::runtime::JobHandle>> queue_;
    bool done_ = false;
    std::vector<std::thread> threads_;
};

/** One rate window's outcome. */
struct Window
{
    double rate = 0.0;
    std::vector<JobRecord> records;
    std::vector<std::size_t> backlog; //!< pending jobs after each send
    double wall = 0.0;                //!< first due .. last completion
    Tail tail;
    double p50 = 0.0;
    uint64_t refused = 0;
    bool backlog_grew = false;
    bool passed = false;
};

/**
 * Drive one window: a generator thread (this one) sends on the
 * schedule; waiter threads stamp completions. Latency runs from the
 * due time.
 */
Window
runWindow(InferenceEngine &engine, std::vector<JobSpec> &window_specs,
          double rate, double seconds, uint64_t seed,
          uint64_t first_number, Tracer &tracer, uint64_t parent)
{
    Window w;
    w.rate = rate;
    const auto offsets = poissonSchedule(rate, seconds, seed);
    w.records.resize(offsets.size());
    w.backlog.resize(offsets.size());

    Waiters waiters(w.records);
    const double start = nowSeconds() + 0.01;
    const auto sends = runSchedule(offsets, start, [&](std::size_t i) {
        JobRecord &rec = w.records[i];
        rec.spec = i;
        rec.number = first_number + i;
        rec.span_id = tracer.newId();
        rec.sweep_spans = tracer.enabled() && i % 2 == 1;
        rec.due = start + offsets[i];
        rec.sent = nowSeconds();
        auto handle = submitRecorded(engine, window_specs[i], rec, tracer);
        w.backlog[i] = static_cast<std::size_t>(engine.pendingJobs());
        if (handle)
            waiters.add(i, std::move(*handle));
        else
            rec.done = rec.sent;
    });
    waiters.finish();

    std::vector<double> latency;
    double last_done = start;
    for (std::size_t i = 0; i < w.records.size(); ++i) {
        auto &rec = w.records[i];
        rec.sent = sends[i].sent; // the sender's own stamp
        recordJobSpan(tracer, window_specs[i], rec, parent, rate);
        if (rec.refused) {
            ++w.refused;
            continue;
        }
        latency.push_back(latencyFromDue(sends[i], rec.done));
        last_done = std::max(last_done, rec.done);
    }
    w.wall = last_done - start;
    w.tail = tailOf(latency);
    w.p50 = median(latency);

    // Growing backlog: the mean queue depth seen by the second half
    // of the sends is well above the first half's.
    const std::size_t half = w.backlog.size() / 2;
    double first = 0.0, second = 0.0;
    for (std::size_t i = 0; i < w.backlog.size(); ++i)
        (i < half ? first : second) += static_cast<double>(w.backlog[i]);
    first /= std::max<std::size_t>(half, 1);
    second /= std::max<std::size_t>(w.backlog.size() - half, 1);
    w.backlog_grew = second > 1.5 * first + 2.0;
    w.passed = w.tail.supported && w.tail.value <= kServeTailLimit &&
               w.refused == 0 && !w.backlog_grew;

    // Lateness of the generator, for bench.gen_lag_tail_s.
    for (const auto &s : sends) {
        Span span;
        span.id = tracer.newId();
        span.parent = parent;
        span.name = "bench.gen.send";
        span.start_ns = static_cast<int64_t>(s.due * 1e9);
        span.end_ns = static_cast<int64_t>(s.sent * 1e9);
        tracer.record(std::move(span));
    }
    return w;
}

Report
runServe(const Options &options, Tracer &tracer)
{
    Report report;
    Setup setup = timedSetup(tracer, report, [&](Tracer &t) {
        return makeServe(t, options.seed);
    });

    const double window_seconds =
        options.seconds / static_cast<double>(std::size(kServeRates));
    std::vector<Window> windows;
    uint64_t sites = 0;
    double wall = 0.0;
    uint64_t number = 1;
    std::map<std::string, std::vector<double>> quality;
    ScopedSpan phase(tracer, "bench.phase");
    for (std::size_t r = 0; r < std::size(kServeRates); ++r) {
        const double rate = kServeRates[r];
        const auto count = static_cast<std::size_t>(
            std::llround(rate * window_seconds));
        std::vector<JobSpec> window_specs;
        for (const auto &[instance, anneal] :
             serveJobs(count, mixSeed(options.seed, 4000 + r))) {
            JobSpec spec = setup.specs[instance];
            spec.options.anneal = anneal;
            spec.options.seed = mixSeed(options.seed,
                                        100000 + number + window_specs.size());
            window_specs.push_back(std::move(spec));
        }
        Window w = runWindow(*setup.engine, window_specs, rate,
                             window_seconds, mixSeed(options.seed, 5000 + r),
                             number, tracer, phase.id());
        number += window_specs.size();
        checkRecords(window_specs, w.records, report);
        for (const auto &rec : w.records)
            if (rec.result && rec.result->quality) {
                auto &q = quality[window_specs[rec.spec].problem->workload];
                q.push_back(*rec.result->quality);
            }
        for (const auto &rec : w.records)
            if (rec.result)
                sites += rec.result->work.site_updates;
        wall += w.wall;
        char line[256];
        std::snprintf(line, sizeof line,
                      "serve rate %.0f jobs/s: %zu jobs, p50 %.4f s, "
                      "tail %.4f s (%s), refused %llu, backlog %s -> %s",
                      rate, w.records.size(), w.p50, w.tail.value,
                      tailBase(w.tail).c_str(),
                      static_cast<unsigned long long>(w.refused),
                      w.backlog_grew ? "growing" : "steady",
                      w.passed ? "meets limit" : "misses limit");
        report.notes.push_back(line);
        windows.push_back(std::move(w));
    }

    for (auto &[name, q] : quality) {
        std::sort(q.begin(), q.end());
        char line[160];
        std::snprintf(line, sizeof line,
                      "serve quality %-13s %zu jobs: min %.4f, median %.4f, "
                      "max %.4f",
                      name.c_str(), q.size(), q.front(), median(q), q.back());
        report.notes.push_back(line);
    }

    // Latency is reported at the lowest (reference) rate, where
    // queueing adds the least run-to-run noise; goodput is the
    // completion rate at the highest rate that passes (0 if none).
    const Window *best = nullptr;
    for (const auto &w : windows)
        if (w.passed)
            best = &w;
    const Window &ref = windows.front();
    char base[96];
    std::snprintf(base, sizeof base, "at %.0f jobs/s", ref.rate);
    report.metrics.push_back({"sites_per_s",
                              static_cast<double>(sites) / wall, "sites/s",
                              "all windows"});
    report.metrics.push_back({"job_p50_s", ref.p50, "s", base});
    report.metrics.push_back({"job_tail_s", ref.tail.value, "s",
                              std::string(base) + ", " + tailBase(ref.tail)});
    std::snprintf(base, sizeof base,
                  "completions/s at %.0f jobs/s offered, limit %.3f s",
                  best ? best->rate : 0.0, kServeTailLimit);
    report.metrics.push_back(
        {"goodput_jps",
         best ? static_cast<double>(best->records.size()) / best->wall
              : 0.0,
         "jobs/s", base});
    return report;
}

} // namespace

Report
runWorkload(const Options &options, Tracer &tracer)
{
    Report report;
    if (options.workload == "bulk")
        report = runBulk(options, tracer);
    else if (options.workload == "serve")
        report = runServe(options, tracer);
    else if (options.workload == "device")
        report = runDevice(options, tracer);
    else
        throw std::invalid_argument("unknown workload '" +
                                    options.workload +
                                    "' (bulk, serve, device)");
    report.metrics.push_back({"peak_rss_mb", peakRssMb(), "MB",
                              "getrusage ru_maxrss"});
    return report;
}

} // namespace perfbench
