/**
 * @file
 * RSU-G: the RET-based Gibbs sampling unit.
 *
 * The paper's primary contribution (sections 4-5): a functional unit
 * that draws one new label for a first-order-MRF random variable by
 * racing M exponential samplers, one per candidate label, each
 * parameterized by the candidate's clique-potential energy. With
 * rates lambda_i proportional to exp(-E_i / T), the winner of the
 * race is distributed exactly as the Gibbs conditional.
 *
 * The unit is K-wide (RSU-G1 ... RSU-G64): K candidate labels are
 * evaluated per cycle, each on its own lane of replicated RET
 * circuits. Replication covers the circuits' quiescence window
 * (section 5.3); with fewer circuits than quiescence cycles the lane
 * stalls, which the embedded timing model charges explicitly.
 *
 * This class is simultaneously:
 *  - a *functional* model — sample() returns a label drawn through
 *    the full quantized device pipeline; and
 *  - a *timing* model — every sample advances a cycle counter using
 *    the paper's pipeline structure (7+(M-1) cycles for RSU-G1,
 *    12 cycles for RSU-G64, section 5).
 */

#ifndef RSU_CORE_RSU_G_H
#define RSU_CORE_RSU_G_H

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/energy_unit.h"
#include "core/intensity_map.h"
#include "core/selection_unit.h"
#include "core/types.h"
#include "ret/fault_injection.h"
#include "ret/ret_circuit.h"
#include "rng/xoshiro256.h"

namespace rsu::core {

/** Static configuration of an RSU-G instance. */
struct RsuGConfig
{
    /** Lane width K: candidate labels evaluated per cycle. */
    int width = 1;

    /** Replicated RET circuits per lane (section 5.3; default 4
     * covers the 4-cycle quiescence window). */
    int circuits_per_lane = 4;

    /** Energy datapath configuration. */
    EnergyConfig energy;

    /** RET circuit device parameters. */
    rsu::ret::RetCircuitConfig circuit;

    /**
     * Two-pass minimum re-referencing: a first pass over the
     * candidates computes all M energies and their minimum, and the
     * firing pass references every energy against that minimum —
     * the optimal placement of the LED ladder's finite dynamic
     * range. Costs an extra ceil(M/K) issue cycles per sample
     * (charged by the timing model). When false (the paper's
     * single-pass pipeline), the caller-provided
     * EnergyInputs::energy_offset is the only re-reference.
     */
    bool two_pass_offset = false;
};

/** Occupancy, quality, and health counters. */
struct RsuGStats
{
    uint64_t samples = 0;        //!< random variables sampled
    uint64_t label_evals = 0;    //!< candidate labels raced
    uint64_t issue_cycles = 0;   //!< cycles spent issuing evaluations
    uint64_t stall_cycles = 0;   //!< structural-hazard stalls
    uint64_t saturated_ttfs = 0; //!< TTF register saturations

    // Health counters (see RsuG::injectFaults and the re-race
    // protocol in RsuG::sample). On a healthy unit only
    // all_saturated_races can move, and only for races whose every
    // candidate mapped to LED code 0.
    uint64_t all_saturated_races = 0; //!< race attempts with no winner
    uint64_t reraces = 0;             //!< bounded re-race attempts
    uint64_t unrecovered_races = 0;   //!< still saturated after them

    /** Fraction of candidate evaluations whose lane failed to
     * report an arrival (saturated reading) — the "misfire"
     * health signal. */
    double
    misfireFraction() const
    {
        return label_evals == 0
                   ? 0.0
                   : static_cast<double>(saturated_ttfs) /
                         static_cast<double>(label_evals);
    }

    /** Accumulate another unit's counters (array aggregation). */
    RsuGStats &operator+=(const RsuGStats &other);
};

/** The Gibbs sampling unit. */
class RsuG
{
  public:
    /**
     * @param config static configuration
     * @param seed entropy seed for the device's RET circuits
     */
    explicit RsuG(const RsuGConfig &config = {}, uint64_t seed = 1);

    /**
     * Per-application initialization: build the energy-to-intensity
     * LUT for Gibbs temperature @p temperature and set the down
     * counter for @p num_labels labels (paper section 6.1,
     * "Initialization" — 3 cycles).
     */
    void initialize(int num_labels, double temperature);

    /** Down-counter label count currently configured. */
    int numLabels() const { return num_labels_; }

    /** Set only the down counter (labels must be <= kMaxLabels);
     * resets the decode table to identity. */
    void setNumLabels(int num_labels);

    /**
     * Candidate-index -> 6-bit label-code decode table (a small ROM
     * in hardware). Vector applications pack 2 x 3-bit components
     * with stride 8, so their valid codes are not contiguous; the
     * down counter iterates candidate indices and this table
     * supplies the code fed to the energy unit and returned as the
     * sample. Size must equal numLabels().
     */
    void setLabelCodes(const std::vector<Label> &codes);

    const std::vector<Label> &labelCodes() const { return codes_; }

    /** Mutable LUT access (ISA map-table writes, context restore). */
    IntensityMap &intensityMap() { return lut_; }
    const IntensityMap &intensityMap() const { return lut_; }

    /**
     * Draw a new label for one random variable.
     *
     * @param in neighbour labels and singleton data; in.data2 is
     *        used for every candidate unless @p data2_per_label is
     *        given
     * @param data2_per_label optional per-candidate second data
     *        input (numLabels() entries, candidate-index order),
     *        e.g. destination pixel intensities in motion estimation
     * @return the winning 6-bit label code
     */
    Label sample(const EnergyInputs &in,
                 const uint8_t *data2_per_label = nullptr);

    /**
     * Energy the datapath assigns to @p candidate under @p in with
     * second data input @p data2 — exposed so software references
     * can share the exact hardware energies.
     */
    Energy labelEnergy(Label candidate, const EnergyInputs &in,
                       uint8_t data2) const;

    /**
     * Exact conditional distribution the quantized device induces
     * for the given inputs: per-candidate-index win probabilities
     * of the geometric TTF race with the keep-incumbent tie rule.
     * This is the analytic oracle the statistical tests compare
     * against.
     */
    std::vector<double>
    raceDistribution(const EnergyInputs &in,
                     const uint8_t *data2_per_label = nullptr) const;

    /**
     * Sample latency in cycles for the current label count: the
     * paper's 7 + (M-1) for K = 1 and 12 cycles for RSU-G64, from
     * the shared pipeline model 6 + ceil(M/K) + selection-tree
     * depth.
     */
    int latencyCycles() const;

    /**
     * Steady-state issue interval in cycles between consecutive
     * random-variable samples, including structural stalls when the
     * lane replication cannot cover quiescence.
     */
    double steadyStateIntervalCycles() const;

    /**
     * Install device faults and the accompanying health policy
     * (see ret/fault_injection.h). Dark-count elevation is merged
     * into every circuit's SPAD model immediately; stuck LED bits,
     * dead SPAD lanes, and forced TTF saturation are applied at
     * each firing. Faults survive re-initialization (annealing
     * re-builds the intensity LUT, not the broken optics). Lane
     * vectors must match the unit's width.
     *
     * With faults installed, sample() runs the bounded
     * re-race-then-report protocol: a race in which every lane
     * saturated (no winner — the selection falls back to the
     * first-evaluated candidate) is re-raced up to
     * faults.max_reraces times; a race still saturated after that
     * counts as unrecovered, and once unrecovered races reach
     * faults.failure_threshold (> 0) the unit declares itself
     * failed. Never installed by default, so fault-free sampling
     * consumes entropy exactly as before — bit-identical to seed.
     */
    void injectFaults(const rsu::ret::UnitFaults &faults);

    /** True once the health policy declared the unit failed. */
    bool failed() const { return failed_; }

    /** True when injectFaults() installed any affliction. */
    bool faultsInjected() const { return faults_active_; }

    const RsuGStats &stats() const { return stats_; }

    const RsuGConfig &config() const { return config_; }
    double temperature() const { return temperature_; }

    /**
     * Per-lane circuit bank access (wear studies, tests).
     *
     * @throws std::out_of_range if @p lane or @p replica is outside
     *         the configured width / circuits_per_lane
     */
    rsu::ret::RetCircuit &circuit(int lane, int replica);

  private:
    /** Per-candidate energies, on the stack: sample() runs once per
     * site on every shard's thread, and a heap buffer per call
     * would interleave the threads' malloc chunks with the units'
     * per-site state. */
    using Energies = std::array<Energy, kMaxLabels>;

    /**
     * Candidate energies in candidate-index order (the first
     * numLabels() entries), after the caller's offset and (in
     * two-pass mode) min re-referencing.
     */
    Energies referencedEnergies(const EnergyInputs &in,
                                const uint8_t *data2_per_label) const;

    /** One full down-counter race over @p energies into
     * @p selection (the pipeline loop of sample()). */
    void raceOnce(SelectionUnit &selection, const Energies &energies);

    RsuGConfig config_;
    rsu::rng::Xoshiro256 rng_;
    EnergyUnit energy_unit_;
    IntensityMap lut_;
    // circuits_[lane * circuits_per_lane + replica]
    std::vector<rsu::ret::RetCircuit> circuits_;
    std::vector<int> lane_next_replica_;
    std::vector<Label> codes_; // candidate index -> label code
    int num_labels_ = 2;
    double temperature_ = 0.0;
    uint64_t cycle_ = 0;
    RsuGStats stats_;

    // Fault-injection state (inert unless injectFaults() ran).
    rsu::ret::UnitFaults faults_;
    bool faults_active_ = false;
    bool failed_ = false;
};

} // namespace rsu::core

#endif // RSU_CORE_RSU_G_H
