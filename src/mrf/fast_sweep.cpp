#include "mrf/fast_sweep.h"

#include <cassert>
#include <stdexcept>

#include "rng/discrete.h"

namespace rsu::mrf {

using rsu::core::kEnergyMax;
using rsu::core::kSimdPadLanes;

namespace {

constexpr int
padLabels(int num_labels)
{
    return (num_labels + kSimdPadLanes - 1) / kSimdPadLanes *
           kSimdPadLanes;
}

/** Point @p rows at the doubleton rows of site (x, y)'s in-lattice
 * neighbours (N, S, W, E order); returns how many there are. */
int
neighbourRows(const rsu::core::DoubletonTable &dt, const Label *labels,
              int width, int height, int x, int y,
              const int32_t *rows[4])
{
    const int site = y * width + x;
    int valid = 0;
    if (y > 0)
        rows[valid++] = dt.row(labels[site - width]);
    if (y + 1 < height)
        rows[valid++] = dt.row(labels[site + width]);
    if (x > 0)
        rows[valid++] = dt.row(labels[site - 1]);
    if (x + 1 < width)
        rows[valid++] = dt.row(labels[site + 1]);
    return valid;
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

SweepTables::SweepTables(const GridMrf &mrf)
    : SweepTables(mrf, std::make_shared<const SweepTableSet>(mrf))
{
}

SweepTables::SweepTables(const GridMrf &mrf,
                         std::shared_ptr<const SweepTableSet> set)
    : mrf_(&mrf), width_(mrf.width()), height_(mrf.height()),
      num_labels_(mrf.numLabels()), set_(std::move(set)),
      temperature_version_(mrf.temperatureVersion()),
      interior_fn_(detail::interiorSampleFor(rsu::core::activeSimdIsa()))
{
    if (!set_ || set_->width() != width_ ||
        set_->height() != height_ ||
        set_->numLabels() != num_labels_ ||
        set_->codes() != mrf.labelCodes())
        throw std::invalid_argument(
            "SweepTables: table set does not match the model");
    exp_.rebuild(mrf.temperature());
    fixed_exp_.rebuild(mrf.temperature());
}

void
SweepTables::sync()
{
    const uint64_t version = mrf_->temperatureVersion();
    if (version == temperature_version_)
        return;
    exp_.rebuild(mrf_->temperature());
    fixed_exp_.rebuild(mrf_->temperature());
    temperature_version_ = version;
}

void
SweepTables::setSimdIsa(rsu::core::SimdIsa isa)
{
    interior_fn_ = detail::interiorSampleFor(isa);
}

Label
SweepTables::updateInterior(GridMrf &mrf, rsu::rng::Xoshiro256 &rng,
                            double *weights, SamplerWork &work,
                            int x, int y) const
{
    assert(&mrf == mrf_);
    assert(x > 0 && x < width_ - 1 && y > 0 && y < height_ - 1);

    const int site = y * width_ + x;
    const Label *labels = mrf.labels().data();
    const auto &dt = set_->doubleton();
    const int32_t *d0 = dt.row(labels[site - width_]);
    const int32_t *d1 = dt.row(labels[site + width_]);
    const int32_t *d2 = dt.row(labels[site - 1]);
    const int32_t *d3 = dt.row(labels[site + 1]);

    const uint8_t *s = set_->singleton().row(site);
    const double *et = exp_.data();
    const int m = num_labels_;
    for (int i = 0; i < m; ++i) {
        int e = s[i] + d0[i] + d1[i] + d2[i] + d3[i];
        e = e < kEnergyMax ? e : kEnergyMax;
        weights[i] = et[e];
    }
    // Logical baseline costs: the timing models charge the m
    // conditional-energy computations and m transcendentals this
    // site *represents*, not the loads that realized them.
    work.energy_evals += m;
    work.exp_calls += m;

    const int choice = rsu::rng::sampleDiscreteLinear(rng, weights, m);
    ++work.random_draws;
    ++work.site_updates;

    const Label l = set_->codes()[choice];
    mrf.setLabel(x, y, l);
    return l;
}

Label
SweepTables::updateBorder(GridMrf &mrf, rsu::rng::Xoshiro256 &rng,
                          double *weights, SamplerWork &work, int x,
                          int y) const
{
    assert(&mrf == mrf_);

    const int32_t *d[4];
    const int valid = neighbourRows(set_->doubleton(),
                                    mrf.labels().data(), width_,
                                    height_, x, y, d);
    const uint8_t *s = set_->singleton().row(y * width_ + x);
    const double *et = exp_.data();
    const int m = num_labels_;
    for (int i = 0; i < m; ++i) {
        int e = s[i];
        for (int k = 0; k < valid; ++k)
            e += d[k][i];
        e = e < kEnergyMax ? e : kEnergyMax;
        weights[i] = et[e];
    }
    work.energy_evals += m;
    work.exp_calls += m;

    const int choice = rsu::rng::sampleDiscreteLinear(rng, weights, m);
    ++work.random_draws;
    ++work.site_updates;

    const Label l = set_->codes()[choice];
    mrf.setLabel(x, y, l);
    return l;
}

Label
SweepTables::updateBorderSimd(GridMrf &mrf,
                              rsu::rng::Xoshiro256 &rng,
                              rsu::rng::BlockRng &block,
                              uint32_t *weights, SamplerWork &work,
                              int x, int y) const
{
    assert(&mrf == mrf_);

    const int32_t *d[4];
    const int valid = neighbourRows(set_->doubleton(),
                                    mrf.labels().data(), width_,
                                    height_, x, y, d);

    // Scalar integer loop over the real candidates: border sites
    // are O(perimeter), and plain fixed-order integer arithmetic is
    // trivially identical across kernels. Renormalized by the site
    // minimum exactly like the interior kernels (see
    // simd_kernels.h), reusing the weights buffer as energy
    // scratch.
    const uint8_t *s = set_->singleton().row(y * width_ + x);
    const uint32_t *wt = fixed_exp_.data();
    const int m = num_labels_;
    int32_t *energies = reinterpret_cast<int32_t *>(weights);
    int emin = kEnergyMax;
    for (int i = 0; i < m; ++i) {
        int e = s[i];
        for (int k = 0; k < valid; ++k)
            e += d[k][i];
        e = e < kEnergyMax ? e : kEnergyMax;
        energies[i] = e;
        emin = e < emin ? e : emin;
    }
    for (int i = 0; i < m; ++i)
        weights[i] = wt[energies[i] - emin];
    work.energy_evals += m;
    work.exp_calls += m;

    const int choice =
        detail::selectCandidateFixed(block.next(rng), weights, m);
    ++work.random_draws;
    ++work.site_updates;

    const Label l = set_->codes()[choice];
    mrf.setLabel(x, y, l);
    return l;
}

} // namespace rsu::mrf
