/**
 * @file
 * Per-layer metrics, derived from a written trace only.
 *
 * Rates divide a span's counted work by its self time. Probe counts
 * (core.rsu_g.*, arch.accel_sim.*) come from the ladder alone, whose
 * work is fixed, so they repeat exactly for a given seed however fast
 * the host runs. Engine metrics come from the workload's own
 * runtime.engine.job spans.
 */

#include <algorithm>
#include <cstdio>
#include <map>

#include "bench.h"

namespace perfbench {

namespace {

struct Sum
{
    double seconds = 0.0; //!< self time
    double count = 0.0;   //!< the summed attribute
    std::size_t spans = 0;
};

std::string
ratioBase(double num, double den, const char *what)
{
    char buf[128];
    std::snprintf(buf, sizeof buf, "%.6g / %.6g %s", num, den, what);
    return buf;
}

} // namespace

std::vector<Metric>
layerMetrics(const std::vector<Span> &spans)
{
    const auto self = selfSeconds(spans);

    // Ladder spans: those inside the bench.ladder interval.
    int64_t ladder_start = 0, ladder_end = -1;
    for (const auto &s : spans)
        if (s.name == "bench.ladder") {
            ladder_start = s.start_ns;
            ladder_end = s.end_ns;
        }
    const auto in_ladder = [&](const Span &s) {
        return s.start_ns >= ladder_start && s.end_ns <= ladder_end;
    };
    // faulted: -1 any span, 0 healthy-unit probes, 1 faulted-unit ones.
    const auto sum = [&](const std::string &name, const char *attr,
                         bool ladder_only, int faulted = -1) {
        Sum out;
        for (const auto &s : spans)
            if (s.name == name && (!ladder_only || in_ladder(s)) &&
                (faulted < 0 || s.attr("faulted") == faulted)) {
                out.seconds += self.at(s.id);
                out.count += s.attr(attr);
                ++out.spans;
            }
        return out;
    };
    const auto rate = [](const Sum &s) {
        return s.seconds > 0.0 ? s.count / s.seconds : 0.0;
    };

    std::vector<Metric> m;

    // workload: problem generation per set-up.
    {
        std::vector<double> per_setup;
        for (const auto &setup : spans) {
            if (setup.name != "bench.setup")
                continue;
            double t = 0.0;
            for (const auto &s : spans)
                if (s.name == "workload.make" &&
                    s.start_ns >= setup.start_ns && s.end_ns <= setup.end_ns)
                    t += s.seconds();
            per_setup.push_back(t);
        }
        m.push_back({"workload.make_s", median(per_setup), "s",
                     "median over set-ups of summed generation time"});
    }

    // mrf
    {
        const Sum build = sum("mrf.table_set.build", "sites", true);
        m.push_back({"mrf.table_set.build_s",
                     build.spans ? build.seconds / build.spans : 0.0, "s",
                     "mean per model, " + std::to_string(build.spans) +
                         " models"});
    }
    double single_rate[2] = {0.0, 0.0};
    const char *paths[2] = {"table", "simd"};
    for (int p = 0; p < 2; ++p) {
        single_rate[p] = rate(sum(std::string("mrf.sweep.") + paths[p],
                                  "sites", true));
        m.push_back({std::string("mrf.sweep.") + paths[p] + ".sites_per_s",
                     single_rate[p], "sites/s", "single chain, 512²"});
    }
    m.push_back({"mrf.rsu_sweep.sites_per_s",
                 rate(sum("mrf.rsu_sweep", "sites", true)), "sites/s",
                 "single chain, Direct mode, 128²"});

    // core: RsuG::sample probes. Rates and counts come from the
    // healthy units; re-races only happen on the faulted ones.
    {
        const char *probe = "core.rsu_g.sample";
        m.push_back({"core.rsu_g.samples_per_s",
                     rate(sum(probe, "samples", true, 0)), "samples/s",
                     "healthy RsuG::sample over device inputs"});
        const char *counts[] = {"label_evals", "issue_cycles",
                                "stall_cycles"};
        for (const char *c : counts)
            m.push_back({std::string("core.rsu_g.") + c,
                         sum(probe, c, true, 0).count, "count",
                         "simulated, healthy units; must repeat exactly"});
        const double evals = sum(probe, "label_evals", true, 0).count;
        const double misfires = sum(probe, "saturated_ttfs", true, 0).count;
        m.push_back({"core.rsu_g.misfire_frac",
                     evals > 0 ? misfires / evals : 0.0, "ratio",
                     ratioBase(misfires, evals,
                               "saturated readings / label evals")});
        m.push_back({"core.rsu_g.reraces", sum(probe, "reraces", true, 1).count,
                     "count", "re-races of the faulted units"});
    }

    // runtime: chromatic executor.
    for (int p = 0; p < 2; ++p) {
        const Sum chrom = sum(std::string("runtime.chromatic.") + paths[p],
                              "sites", true);
        const Sum shards =
            sum(std::string("runtime.chromatic.") + paths[p], "shards", true);
        const double s = chrom.spans ? shards.count / chrom.spans : 1.0;
        const double r = rate(chrom);
        m.push_back({std::string("runtime.chromatic.") + paths[p] +
                         ".sites_per_s",
                     r, "sites/s", "S = " + std::to_string(int(s))});
        const double den = s * single_rate[p];
        m.push_back({std::string("runtime.chromatic.") + paths[p] +
                         ".efficiency",
                     den > 0 ? r / den : 0.0, "ratio",
                     ratioBase(r, den, "(S x single-chain sites/s)")});
    }
    {
        std::vector<double> small;
        for (const auto &s : spans)
            if (s.name == "runtime.chromatic.sweep.small")
                small.push_back(s.seconds());
        m.push_back({"runtime.chromatic.sweep_s.small", median(small), "s",
                     "median of " + std::to_string(small.size()) +
                         " sweeps, 48²"});
    }

    // runtime: engine jobs of the workload — on serve, those of the
    // reference (lowest) rate, as for the end-to-end latencies.
    {
        double ref_rate = -1.0;
        for (const auto &s : spans)
            if (s.name == "runtime.engine.job" &&
                (ref_rate < 0 || s.attr("rate") < ref_rate))
                ref_rate = s.attr("rate");
        std::vector<double> wait, exec, overhead;
        double hits = 0, lookups = 0, build = 0, refused = 0, degraded = 0;
        double t_on = 0, n_on = 0, t_off = 0, n_off = 0;
        for (const auto &s : spans) {
            if (s.name != "runtime.engine.job")
                continue;
            // Refusals, degradations and the trace overhead count over
            // every job; the timings only over the reference rate.
            refused += s.attr("refused");
            if (s.attr("refused") > 0 || s.attr("errored") > 0)
                continue;
            const double elapsed = s.attr("elapsed_s");
            degraded += s.attr("degraded");
            (s.attr("sweep_spans") > 0 ? t_on : t_off) += elapsed;
            (s.attr("sweep_spans") > 0 ? n_on : n_off) += s.attr("sites");
            if (s.attr("rate") != ref_rate)
                continue;
            wait.push_back(s.attr("latency_s") - elapsed);
            exec.push_back(elapsed);
            overhead.push_back(elapsed - s.attr("phase_s") -
                               s.attr("table_build_s"));
            hits += s.attr("cache_hit");
            lookups += s.attr("lookup");
            build += s.attr("table_build_s");
        }
        const Tail wait_tail = tailOf(wait);
        m.push_back({"runtime.engine.queue_wait_s.p50", median(wait), "s",
                     std::to_string(wait.size()) + " jobs"});
        char base[96];
        std::snprintf(base, sizeof base, "p%g of %zu jobs, %zu beyond",
                      wait_tail.percentile, wait_tail.samples,
                      wait_tail.beyond);
        m.push_back({"runtime.engine.queue_wait_s.tail", wait_tail.value, "s",
                     base});
        m.push_back({"runtime.engine.exec_s.p50", median(exec), "s",
                     "elapsed_seconds"});
        m.push_back({"runtime.engine.overhead_s.p50", median(overhead), "s",
                     "elapsed - phase time - table build"});
        m.push_back({"runtime.engine.table_cache_hit_ratio",
                     lookups > 0 ? hits / lookups : 0.0, "ratio",
                     ratioBase(hits, lookups, "hits / lookups")});
        m.push_back({"runtime.engine.table_build_s", build, "s",
                     "sum over jobs"});
        const double engine = rate(sum("runtime.engine.probe", "sites", true));
        const double direct =
            rate(sum("runtime.chromatic.direct", "sites", true));
        m.push_back({"runtime.engine.efficiency",
                     direct > 0 ? engine / direct : 0.0, "ratio",
                     ratioBase(engine, direct,
                               "engine / direct chromatic sites/s")});
        m.push_back({"runtime.engine.refused", refused, "count", "jobs"});
        m.push_back({"runtime.engine.degraded", degraded, "count", "jobs"});

        // Trace overhead: per-site execution time of jobs carrying
        // per-sweep spans against those without, same run.
        const double on = n_on > 0 ? t_on / n_on : 0.0;
        const double off = n_off > 0 ? t_off / n_off : 0.0;
        m.push_back({"bench.trace_overhead_frac",
                     on > 0 && off > 0 ? on / off - 1.0 : 0.0, "ratio",
                     ratioBase(on, off,
                               "s/site with sweep spans / without, minus 1")});
    }

    // arch: the simulator probes.
    {
        const Sum sites = sum("arch.accel_sim", "sites", true);
        m.push_back({"arch.accel_sim.sites_per_s", rate(sites), "sites/s",
                     "host time"});
        m.push_back({"arch.accel_sim.critical_cycles",
                     sum("arch.accel_sim", "critical_cycles", true).count,
                     "count", "simulated; must repeat exactly"});
        m.push_back({"arch.accel_sim.bytes",
                     sum("arch.accel_sim", "bytes", true).count, "count",
                     "simulated operand bytes; must repeat exactly"});
    }

    // bench: open-loop generator lateness.
    {
        std::vector<double> lag;
        for (const auto &s : spans)
            if (s.name == "bench.gen.send")
                lag.push_back(s.seconds());
        const Tail t = tailOf(lag);
        char base[96];
        std::snprintf(base, sizeof base, "p%g of %zu sends", t.percentile,
                      lag.size());
        m.push_back({"bench.gen_lag_tail_s", t.value, "s",
                     lag.empty() ? "closed loop: no generator" : base});
    }
    return m;
}

} // namespace perfbench
