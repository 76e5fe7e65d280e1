#include "mrf/rsu_gibbs.h"

#include <algorithm>

namespace rsu::mrf {

using rsu::core::packNeighbors;
using rsu::core::packSingletonD;
using rsu::core::RsuReg;

RsuGibbsSampler::RsuGibbsSampler(GridMrf &mrf, rsu::core::RsuG &unit,
                                 Schedule schedule, Mode mode)
    : mrf_(mrf), core_(mrf, unit), device_(unit), schedule_(schedule),
      mode_(mode)
{
}

rsu::core::RsuGConfig
RsuGibbsSampler::unitConfigFor(const GridMrf &mrf)
{
    rsu::core::RsuGConfig config;
    config.energy = mrf.config().energy;
    return config;
}

Label
RsuGibbsSampler::updateSite(int x, int y)
{
    if (mode_ == Mode::Direct)
        return core_.updateSite(x, y);

    const int m = mrf_.numLabels();
    const EnergyInputs in = mrf_.referencedInputsAt(x, y);
    const uint8_t *data2 = core_.data2().row(mrf_.index(x, y));

    device_.write(RsuReg::Neighbors,
                  packNeighbors(in.neighbors, in.neighbor_valid));
    device_.write(RsuReg::SingletonA, in.data1);
    device_.write(RsuReg::EnergyOffset, in.energy_offset);
    for (int w = 0; w < rsu::core::singletonDWords(m); ++w)
        device_.write(RsuReg::SingletonD,
                      packSingletonD(&data2[8 * w], std::min(8, m - 8 * w)));
    const Label l = device_.readResult().label;
    ++core_.chain(0).work;
    mrf_.setLabel(x, y, l);
    return l;
}

void
RsuGibbsSampler::sweep()
{
    if (mode_ == Mode::Direct) {
        core_.sweepInOrder(schedule_);
        return;
    }
    forEachSite(mrf_.width(), mrf_.height(), schedule_,
                [this](int x, int y) { updateSite(x, y); });
}

void
RsuGibbsSampler::run(int n)
{
    for (int i = 0; i < n; ++i)
        sweep();
}

} // namespace rsu::mrf
