#include "core/tables.h"

#include <cmath>
#include <new>
#include <stdexcept>

#include <sys/mman.h>

namespace rsu::core {

void *
mapPages(std::size_t bytes)
{
#ifdef __SANITIZE_ADDRESS__
    return ::operator new(bytes);
#else
    void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    return p;
#endif
}

void
unmapPages(void *p, std::size_t bytes) noexcept
{
#ifdef __SANITIZE_ADDRESS__
    ::operator delete(p, bytes);
#else
    munmap(p, bytes);
#endif
}

DoubletonTable::DoubletonTable(const EnergyUnit &unit,
                               const std::vector<Label> &codes,
                               int padded_candidates)
    : num_candidates_(static_cast<int>(codes.size())),
      padded_candidates_(padded_candidates == 0
                             ? num_candidates_
                             : padded_candidates),
      rows_(static_cast<size_t>(kMaxLabels + 1) * padded_candidates_)
{
    if (codes.empty())
        throw std::invalid_argument("DoubletonTable: no candidates");
    if (padded_candidates_ < num_candidates_)
        throw std::invalid_argument(
            "DoubletonTable: padding below candidate count");
    // rows_ value-initializes, so pad lanes and the zero row are
    // already 0: the padded singleton's kEnergyMax stays the row
    // sum.
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
