#include "mrf/fast_sweep.h"

#include "core/simd.h"

namespace rsu::mrf {

using rsu::core::kSimdPadLanes;

namespace {

constexpr int
padLabels(int num_labels)
{
    return (num_labels + kSimdPadLanes - 1) / kSimdPadLanes *
           kSimdPadLanes;
}

} // namespace

SweepTableSet::SweepTableSet(const GridMrf &mrf,
                             const rsu::core::RowParallelFor &parallel)
    : width_(mrf.width()), height_(mrf.height()),
      num_labels_(mrf.numLabels()),
      padded_labels_(padLabels(mrf.numLabels())),
      codes_(mrf.labelCodes()),
      singleton_(mrf.buildSingletonTable(padded_labels_, parallel)),
      doubleton_(mrf.energyUnit(), mrf.labelCodes(), padded_labels_)
{
}

} // namespace rsu::mrf
