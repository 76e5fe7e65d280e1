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
 * MRF types. mrf::SweepTableSet and mrf::SweepCore bundle them for
 * a GridMrf.
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

/** Map @p bytes of page-aligned memory (std::bad_alloc on
 * failure). Under AddressSanitizer, which does not police mapped
 * pages, this is plain ::operator new instead. */
void *mapPages(std::size_t bytes);

/** Release memory from mapPages(@p bytes). */
void unmapPages(void *p, std::size_t bytes) noexcept;

/**
 * Allocator for the per-site tables: each buffer gets pages of its
 * own, which go back to the system the moment the table dies.
 * Through malloc, multi-megabyte tables of past models stay resident
 * in the heap (glibc's dynamic mmap threshold climbs past them), so
 * an engine that builds and evicts tables keeps growing.
 */
template <typename T>
struct PageAllocator
{
    using value_type = T;

    PageAllocator() = default;
    template <typename U>
    PageAllocator(const PageAllocator<U> &) noexcept {}

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(mapPages(n * sizeof(T)));
    }

    void
    deallocate(T *p, std::size_t n) noexcept
    {
        unmapPages(p, n * sizeof(T));
    }

    friend bool
    operator==(const PageAllocator &, const PageAllocator &)
    {
        return true;
    }
};

/** Byte buffer in page-mapped storage. */
using PageBytes = std::vector<uint8_t, PageAllocator<uint8_t>>;

/**
 * Per-site x per-candidate singleton clique energies, saturated to
 * the 8-bit datapath, plus each site's maximum-likelihood candidate.
 *
 * Row layout is site-major: row(site) is paddedLabels() consecutive
 * entries, the first numLabels() of which are real candidates. An
 * entry is min(EnergyUnit::singleton(), kEnergyMax). That loses
 * nothing a sweep can see: every reader computes
 * min(s + sum of doubletons, kEnergyMax) with s and every doubleton
 * >= 0, and min(min(s, 255) + d, 255) == min(s + d, 255). Rows may
 * be padded past numLabels() up to a SIMD lane multiple; padding
 * entries hold kEnergyMax so a vector kernel that sums them anyway
 * lands on the shared clamp and the lane is harmless (the candidate
 * select never scans past numLabels()).
 *
 * The one reader that needs the unclamped energies is the ML start,
 * so the build records each site's argmin over them (argminRow()).
 * Memory: width * height * (padded_labels + 1) bytes, page-mapped.
 */
class SingletonTable
{
  public:
    /**
     * Precompute every entry by calling @p energy(x, y, candidate)
     * once per (site, candidate). The callable must return the
     * non-negative integer singleton energy.
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
                   padded_labels_),
          argmins_(static_cast<size_t>(width) * height)
    {
        assert(padded_labels_ >= num_labels_);
        assert(num_labels_ <= kMaxLabels);
        const auto fill_row = [&](int y) {
            size_t site = static_cast<size_t>(y) * width_;
            uint8_t *r = entries_.data() + site * padded_labels_;
            for (int x = 0; x < width_; ++x, ++site) {
                // First minimum of the unclamped energies.
                int best = 0;
                int best_e = 0;
                for (int i = 0; i < num_labels_; ++i) {
                    const int e = energy(x, y, i);
                    assert(e >= 0);
                    if (i == 0 || e < best_e) {
                        best = i;
                        best_e = e;
                    }
                    r[i] = static_cast<uint8_t>(
                        e < kEnergyMax ? e : kEnergyMax);
                }
                for (int i = num_labels_; i < padded_labels_; ++i)
                    r[i] = static_cast<uint8_t>(kEnergyMax);
                argmins_[site] = static_cast<uint8_t>(best);
                r += padded_labels_;
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

    /** Saturated candidate energies of @p site (paddedLabels()
     * entries, the first numLabels() real). */
    const uint8_t *
    row(int site) const
    {
        return entries_.data() +
               static_cast<size_t>(site) * padded_labels_;
    }

    uint8_t at(int site, int candidate) const
    {
        return row(site)[candidate];
    }

    /**
     * Candidate index with the smallest *unclamped* singleton energy
     * at @p site; ties resolve to the lowest index, matching a
     * strict-less scan. Recorded at build time, so this is a load.
     */
    int argminRow(int site) const { return argmins_[site]; }

  private:
    int width_;
    int height_;
    int num_labels_;
    int padded_labels_;
    PageBytes entries_;
    PageBytes argmins_;
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
 * still saturates the lane). One extra all-zero row stands in for a
 * missing neighbour, whose doubleton term is zero (a cleared
 * neighbor_valid bit in EnergyUnit::evaluate). At most 65 x 64 ints
 * (16.25 KiB), so the whole table lives in L1.
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

    /** paddedCandidates() zeros: the row of a missing neighbour.
     * row() masks codes to 6 bits, so no code reaches it. */
    const int32_t *
    zeroRow() const
    {
        return rows_.data() +
               static_cast<size_t>(kMaxLabels) * padded_candidates_;
    }

  private:
    int num_candidates_;
    int padded_candidates_;
    std::vector<int32_t> rows_; // (kMaxLabels + 1) x paddedCandidates
};

/**
 * exp(-e / T) for every 8-bit energy e at one temperature.
 *
 * Entries are computed with the exact expression the reference
 * sampler uses — std::exp(-double(e) / T) — so a lookup returns a
 * bit-identical double. rebuild() is cheap (256 exp calls) and
 * must be called from a single thread between sweeps;
 * mrf::SweepCore::sweep() calls it when the model's temperature
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
 * per-site virtual data2() calls without copying. Page-mapped, like
 * SingletonTable.
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
    PageBytes entries_;
};

} // namespace rsu::core

#endif // RSU_CORE_TABLES_H
