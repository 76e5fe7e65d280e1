#include "mrf/gibbs.h"

#include "rng/streams.h"

namespace rsu::mrf {

GibbsSampler::GibbsSampler(GridMrf &mrf, uint64_t seed,
                           Schedule schedule, SweepPath path)
    : schedule_(schedule), path_(path),
      core_(mrf, rsu::rng::splitStreams(seed, 1), path)
{
}

void
GibbsSampler::run(int n)
{
    for (int i = 0; i < n; ++i)
        sweep();
}

} // namespace rsu::mrf
