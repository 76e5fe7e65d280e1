/**
 * @file
 * Precomputed lookup tables for the table-driven fast sweep path.
 *
 * The software Gibbs reference pays, per candidate evaluation, a
 * virtual SingletonModel::data2() call, a branchy
 * EnergyUnit::evaluate(), and a std::exp(). All three are pure
 * functions of tiny static domains — the singleton data of a fixed
 * model, the 64 x 64 label-code pairs, and the 256 possible 8-bit
 * energies at one temperature — so each can be precomputed once and
 * turned into a load. Because every energy in the system is an exact
 * integer, the lookups reproduce the reference computation
 * *bit-identically*: same integer energy in, same double weight out
 * (the exp table stores the very doubles std::exp would have
 * returned), same discrete draw from the same RNG state.
 *
 * These classes are model-agnostic: they depend only on the energy
 * datapath and plain fill callables, so the core layer stays free of
 * MRF types. mrf::SweepTables bundles them for a GridMrf.
 */

#ifndef RSU_CORE_TABLES_H
#define RSU_CORE_TABLES_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/energy_unit.h"
#include "core/types.h"

namespace rsu::core {

/**
 * Pluggable parallel-for over n independent units of work: invoke
 * the callable exactly once per index in [0, n), in any order, from
 * any threads, and return only when all invocations finished. Table
 * builders accept one so the runtime can fan row fills out over its
 * ThreadPool (runtime::parallelRowRunner) without the core layer
 * depending on it; an empty function means sequential. Results are
 * order-independent — every index writes a disjoint slice — so the
 * built table is identical either way.
 */
using RowParallelFor =
    std::function<void(int n, const std::function<void(int)> &)>;

/**
 * Per-site x per-candidate singleton clique energies.
 *
 * Row layout is site-major: row(site) is paddedLabels() consecutive
 * entries, the first numLabels() of which are real candidates.
 * Entries are the *exact* integer EnergyUnit::singleton() values
 * (6-bit data squared differences reach 3969 before the configured
 * shift, so entries are 16-bit, not 8). Rows may be padded past
 * numLabels() up to a SIMD lane multiple; padding entries hold
 * kEnergyMax so a vector kernel that sums them anyway lands on the
 * shared min(e, kEnergyMax) clamp and the lane is harmless (the
 * candidate select never scans past numLabels()). Memory:
 * 2 * width * height * padded_labels bytes.
 */
class SingletonTable
{
  public:
    /**
     * Precompute every entry by calling @p energy(x, y, candidate)
     * once per (site, candidate). The callable must return the
     * non-negative integer singleton energy (fits in 16 bits).
     *
     * @param padded_labels row stride in entries (0 means
     *        num_labels, i.e. no padding); must be >= num_labels
     * @param parallel optional RowParallelFor that fans the
     *        per-lattice-row fills out over worker threads; rows are
     *        independent, so the result is identical to a
     *        sequential build
     */
    template <typename Fn>
    SingletonTable(int width, int height, int num_labels,
                   int padded_labels, Fn &&energy,
                   const RowParallelFor &parallel = {})
        : width_(width), height_(height), num_labels_(num_labels),
          padded_labels_(padded_labels == 0 ? num_labels
                                            : padded_labels),
          entries_(static_cast<size_t>(width) * height *
                   padded_labels_)
    {
        assert(padded_labels_ >= num_labels_);
        const auto fill_row = [&](int y) {
            size_t at = static_cast<size_t>(y) * width_ *
                        padded_labels_;
            for (int x = 0; x < width_; ++x) {
                for (int i = 0; i < num_labels_; ++i) {
                    const int e = energy(x, y, i);
                    assert(e >= 0 && e <= 0xffff);
                    entries_[at + i] = static_cast<uint16_t>(e);
                }
                for (int i = num_labels_; i < padded_labels_; ++i)
                    entries_[at + i] =
                        static_cast<uint16_t>(kEnergyMax);
                at += padded_labels_;
            }
        };
        if (parallel)
            parallel(height_, fill_row);
        else
            for (int y = 0; y < height_; ++y)
                fill_row(y);
    }

    int width() const { return width_; }
    int height() const { return height_; }
    int numLabels() const { return num_labels_; }

    /** Row stride in entries (>= numLabels()). */
    int paddedLabels() const { return padded_labels_; }

    /** Candidate energies of @p site (paddedLabels() entries, the
     * first numLabels() real). */
    const uint16_t *
    row(int site) const
    {
        return entries_.data() +
               static_cast<size_t>(site) * padded_labels_;
    }

    uint16_t at(int site, int candidate) const
    {
        return row(site)[candidate];
    }

    /**
     * Candidate index with the smallest singleton energy at
     * @p site; ties resolve to the lowest index, matching a
     * strict-less scan.
     */
    int argminRow(int site) const;

  private:
    int width_;
    int height_;
    int num_labels_;
    int padded_labels_;
    std::vector<uint16_t> entries_;
};

/**
 * Neighbour-code x candidate-index doubleton distances.
 *
 * Row c holds EnergyUnit::doubleton(codes[i], c) for every
 * candidate i — mode, weight, and cap are baked in — so a site's
 * conditional energies are the element-wise sum of its singleton
 * row and its neighbours' rows, contiguous in the candidate
 * dimension for both the scalar loops and the vector kernels. Rows
 * are padded with zeros to a SIMD lane multiple (a zero pad keeps
 * the padded singleton entry at kEnergyMax, so the shared clamp
 * still saturates the lane). At most 64 x 64 ints (16 KiB), so the
 * whole table lives in L1.
 */
class DoubletonTable
{
  public:
    /**
     * @param padded_candidates row stride (0 means codes.size());
     *        must be >= codes.size()
     */
    DoubletonTable(const EnergyUnit &unit,
                   const std::vector<Label> &codes,
                   int padded_candidates = 0);

    int numCandidates() const { return num_candidates_; }

    /** Row stride in entries (>= numCandidates()). */
    int paddedCandidates() const { return padded_candidates_; }

    /** Distances from every candidate to neighbour code @p code
     * (paddedCandidates() entries, the first numCandidates() real,
     * the rest zero). */
    const int32_t *
    row(Label code) const
    {
        return rows_.data() +
               static_cast<size_t>(code & kLabelMask) *
                   padded_candidates_;
    }

    int32_t at(Label neighbor_code, int candidate) const
    {
        return row(neighbor_code)[candidate];
    }

  private:
    int num_candidates_;
    int padded_candidates_;
    std::vector<int32_t> rows_; // kMaxLabels x paddedCandidates
};

/**
 * exp(-e / T) for every 8-bit energy e at one temperature.
 *
 * Entries are computed with the exact expression the reference
 * sampler uses — std::exp(-double(e) / T) — so a lookup returns a
 * bit-identical double. rebuild() is cheap (256 exp calls) and
 * must be called from a single thread between sweeps;
 * mrf::SweepTables::sync() calls it when the model's temperature
 * moves (annealing).
 */
class ExpTable
{
  public:
    /** Recompute all entries for @p temperature. */
    void rebuild(double temperature);

    /** The 256-entry weight table (index = 8-bit energy). */
    const double *data() const { return values_.data(); }

    double
    at(int energy) const
    {
        assert(energy >= 0 && energy <= kEnergyMax);
        return values_[energy];
    }

  private:
    std::vector<double> values_;
};

/**
 * Q32 fixed-point exp(-e / T) for every 8-bit energy e at one
 * temperature — the Simd sweep path's weight table.
 *
 * Entries are the double weights max-normalized (the maximum,
 * exp(0) = 1, maps to 2^32 - 1) and rounded to uint32_t, with a
 * floor of 1 so every real candidate keeps nonzero probability and
 * a site's weight total can never be zero. Integer weights make
 * candidate accumulation and prefix-sum selection associative and
 * lane-order independent, which is what lets the AVX2 and scalar
 * kernels produce identical draws. The sweep kernels index
 * this table with *site-renormalized* energies (each candidate's
 * energy minus the site minimum — softmax-invariant), so the
 * site's best candidate always lands at entry 0 and quantization
 * error stays ~2^-32 relative to the site's own scale; the sampled
 * distribution is then statistically indistinguishable from the
 * exact one (chi-square tested) — but the Simd path is *not*
 * bit-identical to the Table/Reference paths, which use the exact
 * doubles.
 *
 * Rebuilt alongside ExpTable, single-threaded between sweeps.
 */
class FixedExpTable
{
  public:
    /** What exp(0) = 1 maps to: the largest uint32_t. */
    static constexpr double kScale = 4294967295.0;

    /** Recompute all entries for @p temperature. */
    void rebuild(double temperature);

    /** The 256-entry weight table (index = 8-bit energy). */
    const uint32_t *data() const { return values_.data(); }

    uint32_t
    at(int energy) const
    {
        assert(energy >= 0 && energy <= kEnergyMax);
        return values_[energy];
    }

  private:
    std::vector<uint32_t> values_;
};

/**
 * Per-site x per-candidate staged singleton data2 bytes.
 *
 * The RSU path transfers raw data2 operands (not energies) to the
 * device, so its staging table stores the model's data2 bytes; a
 * row can be handed to RsuG::sample() directly, eliminating the
 * per-site virtual data2() calls without copying.
 */
class Data2Table
{
  public:
    /** Precompute via @p data2(x, y, candidate) -> uint8_t. */
    template <typename Fn>
    Data2Table(int width, int height, int num_labels, Fn &&data2)
        : num_labels_(num_labels),
          entries_(static_cast<size_t>(width) * height * num_labels)
    {
        size_t at = 0;
        for (int y = 0; y < height; ++y)
            for (int x = 0; x < width; ++x)
                for (int i = 0; i < num_labels; ++i)
                    entries_[at++] =
                        static_cast<uint8_t>(data2(x, y, i));
    }

    int numLabels() const { return num_labels_; }

    /** Candidate data2 bytes of @p site (numLabels() entries). */
    const uint8_t *
    row(int site) const
    {
        return entries_.data() +
               static_cast<size_t>(site) * num_labels_;
    }

  private:
    int num_labels_;
    std::vector<uint8_t> entries_;
};

} // namespace rsu::core

#endif // RSU_CORE_TABLES_H
