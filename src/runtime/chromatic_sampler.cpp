#include "runtime/chromatic_sampler.h"

#include "rng/streams.h"

namespace rsu::runtime {

ChromaticGibbsSampler::ChromaticGibbsSampler(
    rsu::mrf::GridMrf &mrf, ParallelSweepExecutor &executor,
    uint64_t seed, SamplerKind kind,
    const rsu::core::RsuGConfig &rsu_base, rsu::mrf::SweepPath path,
    std::shared_ptr<const rsu::mrf::SweepTableSet> table_set)
    : mrf_(mrf), executor_(executor), path_(path),
      core_(kind == SamplerKind::RsuGibbs
                ? rsu::mrf::SweepCore(
                      mrf, rsu_base,
                      rsu::rng::splitSeeds(seed, executor.shards()))
                : rsu::mrf::SweepCore(
                      mrf,
                      rsu::rng::splitStreams(seed, executor.shards()),
                      path, std::move(table_set)))
{
}

void
ChromaticGibbsSampler::sweep()
{
    const int w = mrf_.width();
    core_.sweep([&](auto &&row) {
        executor_.sweep(mrf_.height(), [&](int s, int y, int parity) {
            row(s, y, (parity ^ y) & 1, w, 2);
        });
    });
}

void
ChromaticGibbsSampler::run(int n)
{
    for (int i = 0; i < n; ++i)
        sweep();
}

} // namespace rsu::runtime
