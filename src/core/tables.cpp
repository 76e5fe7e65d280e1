#include "core/tables.h"

#include <cmath>
#include <stdexcept>

namespace rsu::core {

int
SingletonTable::argminRow(int site) const
{
    const uint16_t *r = row(site);
    int best = 0;
    uint16_t best_e = r[0];
    for (int i = 1; i < num_labels_; ++i) {
        if (r[i] < best_e) {
            best_e = r[i];
            best = i;
        }
    }
    return best;
}

DoubletonTable::DoubletonTable(const EnergyUnit &unit,
                               const std::vector<Label> &codes,
                               int padded_candidates)
    : num_candidates_(static_cast<int>(codes.size())),
      padded_candidates_(padded_candidates == 0
                             ? num_candidates_
                             : padded_candidates),
      rows_(static_cast<size_t>(kMaxLabels) * padded_candidates_)
{
    if (codes.empty())
        throw std::invalid_argument("DoubletonTable: no candidates");
    if (padded_candidates_ < num_candidates_)
        throw std::invalid_argument(
            "DoubletonTable: padding below candidate count");
    // rows_ value-initializes, so pad lanes are already 0: the
    // padded singleton's kEnergyMax stays the row sum.
    for (int c = 0; c < kMaxLabels; ++c) {
        int32_t *r = rows_.data() +
                     static_cast<size_t>(c) * padded_candidates_;
        for (int i = 0; i < num_candidates_; ++i)
            r[i] = unit.doubleton(codes[i], static_cast<Label>(c));
    }
}

void
ExpTable::rebuild(double temperature)
{
    if (temperature <= 0.0)
        throw std::invalid_argument("ExpTable: temperature must be "
                                    "positive");
    values_.resize(kEnergyMax + 1);
    // The exact expression the Reference sweep kernel evaluates
    // per candidate: identical input double -> identical output
    // bits, which is what makes the fast path bit-exact.
    for (int e = 0; e <= kEnergyMax; ++e)
        values_[e] = std::exp(-static_cast<double>(e) / temperature);
}

void
FixedExpTable::rebuild(double temperature)
{
    if (temperature <= 0.0)
        throw std::invalid_argument("FixedExpTable: temperature "
                                    "must be positive");
    values_.resize(kEnergyMax + 1);
    for (int e = 0; e <= kEnergyMax; ++e) {
        // Round the max-normalized weight to Q32 and floor at 1:
        // exp(-e/T) can underflow the 32-bit grid for cold
        // temperatures, and a zero lane would make a site's weight
        // total zero when every candidate is that unlikely.
        const long long q = std::llround(
            std::exp(-static_cast<double>(e) / temperature) *
            kScale);
        values_[e] = static_cast<uint32_t>(q < 1 ? 1 : q);
    }
}

} // namespace rsu::core
