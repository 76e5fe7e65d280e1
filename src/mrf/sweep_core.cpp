#include "mrf/sweep_core.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace rsu::mrf {

SweepCore::SweepCore(GridMrf &mrf,
                     std::vector<rsu::rng::Xoshiro256> streams,
                     SweepPath path,
                     std::shared_ptr<const SweepTableSet> table_set)
    : mrf_(mrf), path_(path), chains_(streams.size())
{
    if (path_ != SweepPath::Reference) {
        table_set_ = table_set ? std::move(table_set)
                               : std::make_shared<SweepTableSet>(mrf);
        if (table_set_->width() != mrf.width() ||
            table_set_->height() != mrf.height() ||
            table_set_->numLabels() != mrf.numLabels() ||
            table_set_->codes() != mrf.labelCodes())
            throw std::invalid_argument(
                "SweepCore: table set does not match the model");
        rebuildExpTables();
        setSimdIsa(rsu::core::activeSimdIsa());
    }
    for (std::size_t c = 0; c < chains_.size(); ++c)
        chains_[c].rng = streams[c];
}

SweepCore::SweepCore(GridMrf &mrf, const rsu::core::RsuGConfig &config,
                     const std::vector<uint64_t> &seeds)
    : mrf_(mrf), path_(SweepPath::Reference), chains_(seeds.size()),
      data2_(std::make_unique<rsu::core::Data2Table>(
          mrf.buildData2Table()))
{
    rsu::core::RsuGConfig matched = config;
    matched.energy = mrf.config().energy;
    for (std::size_t c = 0; c < seeds.size(); ++c) {
        owned_units_.push_back(
            std::make_unique<rsu::core::RsuG>(matched, seeds[c]));
        chains_[c].unit = owned_units_.back().get();
    }
    setUpUnits();
}

SweepCore::SweepCore(GridMrf &mrf, rsu::core::RsuG &unit)
    : mrf_(mrf), path_(SweepPath::Reference), chains_(1),
      data2_(std::make_unique<rsu::core::Data2Table>(
          mrf.buildData2Table()))
{
    chains_[0].unit = &unit;
    setUpUnits();
}

void
SweepCore::rebuildExpTables()
{
    exp_.rebuild(mrf_.temperature());
    fixed_exp_.rebuild(mrf_.temperature());
    temperature_version_ = mrf_.temperatureVersion();
}

void
SweepCore::setUpUnits()
{
    for (auto &chain : chains_) {
        if (!chain.unit)
            continue;
        if (!(chain.unit->config().energy == mrf_.config().energy))
            throw std::invalid_argument(
                "SweepCore: the RSU-G's energy datapath configuration "
                "must match the model's (use "
                "RsuGibbsSampler::unitConfigFor())");
        chain.unit->initialize(mrf_.numLabels(), mrf_.temperature());
        chain.unit->setLabelCodes(mrf_.labelCodes());
    }
}

void
SweepCore::referenceUpdate(SweepChain &chain, int x, int y)
{
    const int m = mrf_.numLabels();
    const double t = mrf_.temperature();
    double *weights = chain.weights.data();
    EnergyInputs in = mrf_.inputsAt(x, y);
    for (int i = 0; i < m; ++i) {
        const Label code = mrf_.codeOf(i);
        in.data2 = mrf_.singleton().data2(x, y, code);
        const Energy e = mrf_.energyUnit().evaluate(code, in);
        weights[i] = std::exp(-static_cast<double>(e) / t);
    }
    const int choice =
        rsu::rng::sampleDiscreteLinear(chain.rng, weights, m);
    mrf_.setLabel(x, y, mrf_.codeOf(choice));
}

void
SweepCore::deviceUpdate(SweepChain &chain, int x, int y)
{
    const EnergyInputs in = mrf_.referencedInputsAt(x, y);
    const Label l =
        chain.unit->sample(in, data2_->row(mrf_.index(x, y)));
    mrf_.setLabel(x, y, l);
}

void
SweepCore::sweepInOrder(Schedule schedule)
{
    const int w = mrf_.width();
    const int h = mrf_.height();
    sweep([&](auto &&row) {
        if (schedule == Schedule::Raster) {
            for (int y = 0; y < h; ++y)
                row(0, y, 0, w, 1);
            return;
        }
        for (int parity = 0; parity < 2; ++parity)
            for (int y = 0; y < h; ++y)
                row(0, y, (parity ^ y) & 1, w, 2);
    });
}

Label
SweepCore::updateSite(int x, int y)
{
    sweep([&](auto &&row) { row(0, y, x, x + 1, 1); });
    return mrf_.label(x, y);
}

void
SweepCore::setTemperature(double t)
{
    mrf_.setTemperature(t);
    setUpUnits();
}

void
SweepCore::injectFaults(const rsu::ret::FaultPlan &plan)
{
    for (int c = 0; c < chains(); ++c) {
        rsu::core::RsuG *unit = chains_[c].unit;
        if (unit)
            unit->injectFaults(plan.faultsFor(c, unit->config().width));
    }
}

bool
SweepCore::deviceFailed() const
{
    for (const auto &chain : chains_)
        if (chain.unit && chain.unit->failed())
            return true;
    return false;
}

rsu::core::RsuGStats
SweepCore::deviceStats() const
{
    rsu::core::RsuGStats total;
    for (const auto &chain : chains_)
        if (chain.unit)
            total += chain.unit->stats();
    return total;
}

SamplerWork
SweepCore::work() const
{
    SamplerWork total;
    for (const auto &chain : chains_)
        total.site_updates += chain.work;
    const uint64_t m = static_cast<uint64_t>(mrf_.numLabels());
    total.energy_evals = m * total.site_updates;
    // Device chains (the ones with staged data2) race, not exp().
    total.exp_calls = data2_ ? 0 : total.energy_evals;
    total.random_draws = total.site_updates;
    return total;
}

rsu::core::RsuG &
SweepCore::unit(int c)
{
    if (c < 0 || c >= chains())
        throw std::out_of_range("SweepCore: no chain " +
                                std::to_string(c));
    if (!chains_[c].unit)
        throw std::logic_error("SweepCore: chain " +
                               std::to_string(c) + " has no RSU-G");
    return *chains_[c].unit;
}

} // namespace rsu::mrf
