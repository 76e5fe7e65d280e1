/**
 * @file
 * The repository benchmark: shared types of the workload runners
 * (workloads.cpp), the traced layer ladder (ladder.cpp) and the
 * per-layer metric derivation (layers.cpp).
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/accel_sim.h"
#include "ret/fault_injection.h"
#include "runtime/inference_engine.h"
#include "stats.h"
#include "trace.h"
#include "workload/problem.h"
#include "workload/registry.h"

namespace perfbench {

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_path;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string base; //!< what a ratio or tail is taken over
};

/** Everything one run reports. */
struct Report
{
    Tally tally;
    std::vector<std::string> failures; //!< failed checks
    std::vector<Metric> metrics;       //!< end-to-end metrics
    std::vector<std::string> notes;    //!< human-readable lines

    void
    fail(std::string what)
    {
        failures.push_back(std::move(what));
    }
};

/** Pool size of every engine and executor: the host's cores. */
int poolThreads();

/** Deterministic 64-bit mix of a seed and a stream tag. */
uint64_t mixSeed(uint64_t seed, uint64_t tag);

/** Engine options shared by every workload and the ladder. */
rsu::runtime::EngineOptions engineOptions();

/** The device workload's fault campaign: every SPAD lane dead, so
 * races end with no winner; after a few unrecovered races the unit
 * declares failure and the engine finishes the job on the Table
 * path from the next sweep on. */
rsu::ret::FaultPlan deviceFaultPlan(uint64_t seed);

/** AcceleratorSim farm of the device workload and the ladder. */
rsu::arch::AcceleratorSimConfig accelConfig(uint64_t seed);

/** Build a registry workload inside a "workload.make" span. */
std::shared_ptr<const rsu::workload::InferenceProblem>
makeProblem(Tracer &tracer, const std::string &name,
            const rsu::workload::SceneOptions &scene);

/** Run one of the workloads "bulk", "serve", "device".
 * @throws std::invalid_argument for an unknown name */
Report runWorkload(const Options &options, Tracer &tracer);

/** The traced layer ladder: single-layer probes on the workloads'
 * shapes plus the identity checks (failures land in @p report). */
void runLadder(const Options &options, Tracer &tracer,
               Report &report);

/** Per-layer metrics derived from a written trace. */
std::vector<Metric> layerMetrics(const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
