#include "mrf/grid_mrf.h"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

namespace rsu::mrf {

GridMrf::GridMrf(const MrfConfig &config,
                 const SingletonModel &singleton)
    : config_(config), singleton_(singleton),
      energy_unit_(config.energy)
{
    if (config_.width < 1 || config_.height < 1)
        throw std::invalid_argument("GridMrf: empty lattice");
    if (config_.num_labels < 1 ||
        config_.num_labels > rsu::core::kMaxLabels) {
        throw std::invalid_argument("GridMrf: label count out of "
                                    "range");
    }
    if (config_.temperature <= 0.0)
        throw std::invalid_argument("GridMrf: temperature must be "
                                    "positive");

    if (config_.label_codes.empty()) {
        codes_.resize(config_.num_labels);
        for (int i = 0; i < config_.num_labels; ++i)
            codes_[i] = static_cast<Label>(i);
    } else {
        if (static_cast<int>(config_.label_codes.size()) !=
            config_.num_labels)
            throw std::invalid_argument("GridMrf: label_codes size "
                                        "must equal num_labels");
        codes_ = config_.label_codes;
    }
    code_to_index_.assign(rsu::core::kMaxLabels, -1);
    for (int i = 0; i < config_.num_labels; ++i) {
        const Label c = codes_[i] & rsu::core::kLabelMask;
        if (code_to_index_[c] != -1)
            throw std::invalid_argument("GridMrf: duplicate label "
                                        "code");
        code_to_index_[c] = i;
    }

    labels_.assign(static_cast<size_t>(size()), codes_[0]);
}

void
GridMrf::fillLabels(Label l)
{
    for (auto &lab : labels_)
        lab = l;
}

void
GridMrf::randomizeLabels(rsu::rng::Xoshiro256 &rng)
{
    for (auto &lab : labels_)
        lab = codes_[rng.below(config_.num_labels)];
}

void
GridMrf::setTemperature(double t)
{
    if (t <= 0.0)
        throw std::invalid_argument("GridMrf: temperature must be "
                                    "positive");
    config_.temperature = t;
    ++temperature_version_;
}

rsu::core::SingletonTable
GridMrf::buildSingletonTable() const
{
    return buildSingletonTable(0, {});
}

rsu::core::SingletonTable
GridMrf::buildSingletonTable(
    int padded_labels, const rsu::core::RowParallelFor &parallel) const
{
    return rsu::core::SingletonTable(
        width(), height(), numLabels(), padded_labels,
        [this](int x, int y, int i) {
            return energy_unit_.singleton(
                singleton_.data1(x, y),
                singleton_.data2(x, y, codes_[i]));
        },
        parallel);
}

rsu::core::Data2Table
GridMrf::buildData2Table() const
{
    return rsu::core::Data2Table(
        width(), height(), numLabels(), [this](int x, int y, int i) {
            return singleton_.data2(x, y, codes_[i]);
        });
}

void
GridMrf::initializeMaximumLikelihood()
{
    initializeMaximumLikelihood(buildSingletonTable());
}

void
GridMrf::initializeMaximumLikelihood(
    const rsu::core::SingletonTable &table)
{
    if (table.width() != width() || table.height() != height() ||
        table.numLabels() != numLabels())
        throw std::invalid_argument("GridMrf: singleton table shape "
                                    "mismatch");
    for (int site = 0; site < size(); ++site)
        labels_[site] = codes_[table.argminRow(site)];
}

void
GridMrf::setLabels(const std::vector<Label> &labels)
{
    if (labels.size() != labels_.size())
        throw std::invalid_argument("GridMrf: label grid size "
                                    "mismatch");
    for (const Label l : labels) {
        const int i = indexOfCode(l);
        if (i < 0 || codes_[i] != l)
            throw std::invalid_argument(
                "GridMrf: label " + std::to_string(l) +
                " is not one of the model's codes");
    }
    labels_ = labels;
}

EnergyInputs
GridMrf::inputsAt(int x, int y) const
{
    assert(x >= 0 && x < width() && y >= 0 && y < height());
    EnergyInputs in;
    // Neighbour order: N, S, W, E.
    const int nx[4] = {x, x, x - 1, x + 1};
    const int ny[4] = {y - 1, y + 1, y, y};
    for (int i = 0; i < 4; ++i) {
        const bool ok = nx[i] >= 0 && nx[i] < width() && ny[i] >= 0 &&
                        ny[i] < height();
        in.neighbor_valid[i] = ok;
        in.neighbors[i] = ok ? label(nx[i], ny[i]) : 0;
    }
    in.data1 = singleton_.data1(x, y);
    in.data2 = 0;
    return in;
}

EnergyInputs
GridMrf::referencedInputsAt(int x, int y) const
{
    EnergyInputs in = inputsAt(x, y);
    const Label l = label(x, y);
    in.data2 = singleton_.data2(x, y, l);
    in.energy_offset = energy_unit_.evaluate(l, in);
    in.data2 = 0;
    return in;
}

void
GridMrf::data2At(int x, int y, uint8_t *out) const
{
    for (int i = 0; i < numLabels(); ++i)
        out[i] = singleton_.data2(x, y, codes_[i]);
}

Energy
GridMrf::conditionalEnergy(int x, int y, Label l) const
{
    EnergyInputs in = inputsAt(x, y);
    in.data2 = singleton_.data2(x, y, l);
    return energy_unit_.evaluate(l, in);
}

std::vector<double>
GridMrf::conditionalDistribution(int x, int y) const
{
    const int m = numLabels();
    std::vector<double> probs(m);
    double total = 0.0;
    for (int i = 0; i < m; ++i) {
        const Energy e = conditionalEnergy(x, y, codes_[i]);
        probs[i] = std::exp(-static_cast<double>(e) /
                            config_.temperature);
        total += probs[i];
    }
    for (double &p : probs)
        p /= total;
    return probs;
}

int64_t
GridMrf::totalEnergy(const rsu::core::RowParallelFor &parallel) const
{
    // Row y owns its singletons, its horizontal edges and the
    // vertical edges down to row y + 1.
    std::vector<int64_t> rows(static_cast<size_t>(height()));
    const auto sum_row = [&](int y) {
        int64_t total = 0;
        for (int x = 0; x < width(); ++x) {
            const Label l = label(x, y);
            total += energy_unit_.singleton(
                singleton_.data1(x, y), singleton_.data2(x, y, l));
            if (x + 1 < width())
                total += energy_unit_.doubleton(l, label(x + 1, y));
            if (y + 1 < height())
                total += energy_unit_.doubleton(l, label(x, y + 1));
        }
        rows[y] = total;
    };
    if (parallel)
        parallel(height(), sum_row);
    else
        for (int y = 0; y < height(); ++y)
            sum_row(y);
    int64_t total = 0;
    for (const int64_t r : rows)
        total += r;
    return total;
}

} // namespace rsu::mrf
