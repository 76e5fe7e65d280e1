/**
 * @file
 * rsu_perfbench — the repository benchmark.
 *
 *   rsu_perfbench --workload bulk|serve|device --seed N --seconds S
 *                 --trace 0|1 [--trace-file PATH]
 *
 * Untraced (--trace 0): runs the workload and prints every end-to-end
 * metric. Traced (--trace 1): runs the workload with spans, then the
 * layer ladder, writes the trace, reads it back and prints every
 * per-layer metric. Either way every output is checked; the last
 * stdout line is one JSON object {correct, attempted, failed,
 * metrics}, and the exit code is 1 when a check failed.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "bench.h"
#include "core/simd.h"

namespace {

using namespace perfbench;

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + arg);
        const std::string value = argv[++i];
        if (arg == "--workload") {
            o.workload = value;
            have_workload = true;
        } else if (arg == "--seed") {
            o.seed = std::stoull(value);
        } else if (arg == "--seconds") {
            o.seconds = std::stod(value);
        } else if (arg == "--trace") {
            o.trace = value == "1";
        } else if (arg == "--trace-file") {
            o.trace_path = value;
        } else {
            throw std::invalid_argument("unknown option " + arg);
        }
    }
    if (!have_workload)
        throw std::invalid_argument("--workload is required");
    if (!(o.seconds > 0.0))
        throw std::invalid_argument("--seconds must be positive");
    if (o.trace_path.empty())
        o.trace_path = "trace-" + o.workload + "-" +
                       std::to_string(o.seed) + ".tsv";
    return o;
}

bool
releaseBuild()
{
    return std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0 ||
           std::strcmp(PERFBENCH_BUILD_TYPE, "RelWithDebInfo") == 0;
}

/** The environment every result is recorded with. */
std::vector<std::string>
environment(const Options &o)
{
    char buf[512];
    std::vector<std::string> env;
    std::snprintf(buf, sizeof buf,
                  "env: workload=%s seed=%llu seconds=%g trace=%d "
                  "nproc=%d simd_isa=%s",
                  o.workload.c_str(),
                  static_cast<unsigned long long>(o.seed), o.seconds,
                  o.trace ? 1 : 0, poolThreads(),
                  rsu::core::simdIsaName(rsu::core::activeSimdIsa()));
    env.push_back(buf);
    std::snprintf(buf, sizeof buf, "env: build_type=%s flags='%s'%s",
                  PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS,
                  releaseBuild() ? ""
                                 : " WARNING: non-release build, timings "
                                   "are not meaningful");
    env.push_back(buf);
    return env;
}

void
printMetric(const Metric &m)
{
    std::printf("  %-38s %-14.6g %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.base.c_str());
}

std::string
jsonMetrics(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    char buf[256];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", metrics[i].name.c_str(),
                      metrics[i].value, metrics[i].unit.c_str());
        out += buf;
    }
    return out + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Options options = parseArgs(argc, argv);
        const auto env = environment(options);
        for (const auto &line : env)
            std::printf("%s\n", line.c_str());
        std::fflush(stdout);

        Tracer tracer(options.trace);
        Report report = runWorkload(options, tracer);
        std::vector<Metric> layers;
        if (options.trace) {
            runLadder(options, tracer, report);
            tracer.write(options.trace_path, env);
            layers = layerMetrics(readTrace(options.trace_path));
        }

        for (const auto &line : report.notes)
            std::printf("%s\n", line.c_str());
        std::printf("end-to-end%s:\n",
                    options.trace ? " (traced run, not for comparison)"
                                  : "");
        for (const auto &m : report.metrics)
            printMetric(m);
        std::printf("  %-38s %-14.6g %-8s %llu of %llu jobs (refused %llu, "
                    "errored %llu, partial %llu, check failed %llu)\n",
                    "failed_frac", report.tally.failedFrac(), "ratio",
                    static_cast<unsigned long long>(report.tally.failed()),
                    static_cast<unsigned long long>(report.tally.attempted()),
                    static_cast<unsigned long long>(report.tally.refused),
                    static_cast<unsigned long long>(report.tally.errored),
                    static_cast<unsigned long long>(report.tally.partial),
                    static_cast<unsigned long long>(report.tally.check_failed));
        if (options.trace) {
            std::printf("per-layer (from %s, %zu spans):\n",
                        options.trace_path.c_str(), tracer.size());
            for (const auto &m : layers)
                printMetric(m);
        }
        for (const auto &f : report.failures)
            std::printf("CHECK FAILED: %s\n", f.c_str());

        const bool correct = report.failures.empty();
        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                    "%llu, \"metrics\": %s}\n",
                    correct ? "true" : "false",
                    static_cast<unsigned long long>(report.tally.attempted()),
                    static_cast<unsigned long long>(report.tally.failed()),
                    jsonMetrics(options.trace ? layers : report.metrics)
                        .c_str());
        return correct ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "rsu_perfbench: %s\n", e.what());
        return 2;
    }
}
