/**
 * @file
 * Software discrete-sampler microbenchmarks (google-benchmark).
 *
 * Complements Table 1: the Gibbs inner loop's *discrete* draw can
 * be implemented several ways in software, and this bench shows
 * their throughput against the std:: baseline and the full
 * emulated RSU-G path:
 *
 *  - linear CDF scan (what a straightforward kernel does, O(M));
 *  - binary-search CDF (O(log M), O(M) setup per pixel);
 *  - alias method (O(1), O(M) setup per pixel — setup dominates
 *    when the distribution changes every draw, the MRF case);
 *  - std::discrete_distribution (allocates per construction);
 *  - full Gibbs site parameterization + draw.
 *
 * On top of the microbenchmarks, a full-sweep benchmark is
 * registered for every workload in the WorkloadRegistry, on the
 * Reference and Table sweep paths (BM_WorkloadSweep/<name>/<path>),
 * so per-application sweep cost is measured through the same
 * factories the serving stack uses. Filter as usual, e.g.
 *   bench_software_samplers
 *       --benchmark_filter=BM_WorkloadSweep/motion
 */

#include <random>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/energy_unit.h"
#include "mrf/gibbs.h"
#include "mrf/grid_mrf.h"
#include "rng/discrete.h"
#include "rng/distributions.h"
#include "rng/xoshiro256.h"
#include "workload/registry.h"

namespace {

using rsu::rng::Xoshiro256;

std::vector<double>
freshWeights(Xoshiro256 &rng, int m)
{
    std::vector<double> w(m);
    for (auto &x : w)
        x = 0.05 + rng.uniform();
    return w;
}

void
BM_LinearScan(benchmark::State &state)
{
    const int m = static_cast<int>(state.range(0));
    Xoshiro256 rng(1);
    const auto w = freshWeights(rng, m);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            rsu::rng::sampleDiscreteLinear(rng, w.data(), m));
    }
}
BENCHMARK(BM_LinearScan)->Arg(5)->Arg(49);

void
BM_CdfSamplerReused(benchmark::State &state)
{
    const int m = static_cast<int>(state.range(0));
    Xoshiro256 rng(2);
    const rsu::rng::CdfSampler sampler(freshWeights(rng, m));
    for (auto _ : state)
        benchmark::DoNotOptimize(sampler.sample(rng));
}
BENCHMARK(BM_CdfSamplerReused)->Arg(5)->Arg(49);

void
BM_AliasSamplerReused(benchmark::State &state)
{
    const int m = static_cast<int>(state.range(0));
    Xoshiro256 rng(3);
    const rsu::rng::AliasSampler sampler(freshWeights(rng, m));
    for (auto _ : state)
        benchmark::DoNotOptimize(sampler.sample(rng));
}
BENCHMARK(BM_AliasSamplerReused)->Arg(5)->Arg(49);

void
BM_AliasSamplerRebuiltPerDraw(benchmark::State &state)
{
    // The MRF case: the conditional changes every pixel, so setup
    // cost is paid per draw.
    const int m = static_cast<int>(state.range(0));
    Xoshiro256 rng(4);
    const auto w = freshWeights(rng, m);
    for (auto _ : state) {
        const rsu::rng::AliasSampler sampler(w);
        benchmark::DoNotOptimize(sampler.sample(rng));
    }
}
BENCHMARK(BM_AliasSamplerRebuiltPerDraw)->Arg(5)->Arg(49);

void
BM_StdDiscreteDistribution(benchmark::State &state)
{
    const int m = static_cast<int>(state.range(0));
    Xoshiro256 rng(5);
    std::mt19937_64 eng(5);
    const auto w = freshWeights(rng, m);
    for (auto _ : state) {
        std::discrete_distribution<int> dist(w.begin(), w.end());
        benchmark::DoNotOptimize(dist(eng));
    }
}
BENCHMARK(BM_StdDiscreteDistribution)->Arg(5)->Arg(49);

void
BM_FullGibbsSiteDraw(benchmark::State &state)
{
    // Parameterization (M energies + M exp) plus the draw — the
    // complete software inner loop the RSU-G replaces.
    const int m = static_cast<int>(state.range(0));
    Xoshiro256 rng(6);
    const rsu::core::EnergyUnit unit;
    rsu::core::EnergyInputs in;
    in.neighbors = {1, 2, 3, 4};
    in.data1 = 20;
    std::vector<double> weights(m);
    for (auto _ : state) {
        for (int l = 0; l < m; ++l) {
            in.data2 = static_cast<uint8_t>((l * 7) & 0x3f);
            const auto e = unit.evaluate(
                static_cast<rsu::core::Label>(l & 0x3f), in);
            weights[l] =
                __builtin_exp(-static_cast<double>(e) / 16.0);
        }
        benchmark::DoNotOptimize(rsu::rng::sampleDiscreteLinear(
            rng, weights.data(), m));
    }
}
BENCHMARK(BM_FullGibbsSiteDraw)->Arg(5)->Arg(49);

/** One full checkerboard sweep of workload @p name on @p path,
 * over a small registry-built instance (48x36). */
void
workloadSweep(benchmark::State &state, const std::string &name,
              rsu::mrf::SweepPath path)
{
    rsu::workload::SceneOptions scene;
    scene.width = 48;
    scene.height = 36;
    const auto problem =
        rsu::workload::WorkloadRegistry::builtin().make(name,
                                                        scene);
    rsu::mrf::GridMrf mrf(problem.config, *problem.singleton);
    mrf.initializeMaximumLikelihood();
    rsu::mrf::GibbsSampler sampler(
        mrf, 7, rsu::mrf::Schedule::Checkerboard, path);
    for (auto _ : state)
        sampler.sweep();
    state.SetItemsProcessed(state.iterations() * mrf.width() *
                            mrf.height());
}

void
registerWorkloadSweeps()
{
    const auto &registry =
        rsu::workload::WorkloadRegistry::builtin();
    for (const auto &name : registry.names()) {
        for (const auto path : {rsu::mrf::SweepPath::Reference,
                                rsu::mrf::SweepPath::Table}) {
            const std::string bench_name =
                "BM_WorkloadSweep/" + name +
                (path == rsu::mrf::SweepPath::Table
                     ? "/table"
                     : "/reference");
            benchmark::RegisterBenchmark(
                bench_name.c_str(),
                [name, path](benchmark::State &state) {
                    workloadSweep(state, name, path);
                });
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    registerWorkloadSweeps();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
