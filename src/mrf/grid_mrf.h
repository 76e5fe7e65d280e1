/**
 * @file
 * First-order grid Markov Random Field.
 *
 * The problem class the RSU-G targets (paper section 4.1): discrete
 * random variables on a 2-D lattice, each conditionally independent
 * of everything but its four neighbours, with homogeneous isotropic
 * smoothness potentials. The full conditional of a variable is the
 * normalized exponential of the sum of one singleton and four
 * doubleton clique potentials (Equation 1).
 *
 * Crucially, the model computes those potentials with the *same*
 * limited-precision EnergyUnit the hardware uses, so the software
 * Gibbs reference and the RSU path share identical energies — any
 * divergence between them is attributable to sampling alone.
 */

#ifndef RSU_MRF_GRID_MRF_H
#define RSU_MRF_GRID_MRF_H

#include <cstdint>
#include <vector>

#include "core/energy_unit.h"
#include "core/tables.h"
#include "core/types.h"
#include "rng/xoshiro256.h"

namespace rsu::mrf {

using rsu::core::Energy;
using rsu::core::EnergyConfig;
using rsu::core::EnergyInputs;
using rsu::core::EnergyUnit;
using rsu::core::Label;

/**
 * Application-specific singleton clique potential data source.
 *
 * The RSU-G datapath computes the singleton energy as the (scaled)
 * squared difference of two 6-bit data inputs (paper section 4.3);
 * the application decides what those inputs are. data1 depends only
 * on the pixel (e.g. its observed intensity); data2 may additionally
 * depend on the candidate label (destination intensity in motion
 * estimation, class mean in segmentation).
 */
class SingletonModel
{
  public:
    virtual ~SingletonModel() = default;

    /** First data input for pixel (x, y). */
    virtual uint8_t data1(int x, int y) const = 0;

    /** Second data input for pixel (x, y) and candidate @p label. */
    virtual uint8_t data2(int x, int y, Label label) const = 0;
};

/** Static model parameters. */
struct MrfConfig
{
    int width = 0;
    int height = 0;
    int num_labels = 2;
    EnergyConfig energy;
    /** Gibbs temperature T (Equation 1), in 8-bit energy units. */
    double temperature = 16.0;
    /**
     * Candidate index -> 6-bit label code decode table. Labels the
     * datapath sees are *codes*; vector applications pack 2 x 3-bit
     * components with stride 8, so valid codes need not be
     * contiguous (e.g. motion's 7x7 window). Empty means identity
     * (code i for candidate i).
     */
    std::vector<Label> label_codes;
};

/** A scalar-label configuration on the default energy datapath
 * (scalar codes, singleton shift 4): every workload but motion. */
inline MrfConfig
scalarConfig(int width, int height, int num_labels, double temperature,
             int doubleton_weight)
{
    MrfConfig config;
    config.width = width;
    config.height = height;
    config.num_labels = num_labels;
    config.temperature = temperature;
    config.energy.doubleton_weight = doubleton_weight;
    return config;
}

/** The lattice, its current labelling, and the energy functions. */
class GridMrf
{
  public:
    /**
     * @param config lattice and potential parameters
     * @param singleton data source; must outlive the MRF
     */
    GridMrf(const MrfConfig &config, const SingletonModel &singleton);

    int width() const { return config_.width; }
    int height() const { return config_.height; }
    int size() const { return config_.width * config_.height; }
    int numLabels() const { return config_.num_labels; }

    /** 6-bit label code of candidate @p index. */
    Label
    codeOf(int index) const
    {
        return codes_[index];
    }

    /** Candidate index of label code @p code (-1 if not a valid
     * code for this model). */
    int
    indexOfCode(Label code) const
    {
        return code_to_index_[code & rsu::core::kLabelMask];
    }

    /** The full index -> code decode table. */
    const std::vector<Label> &labelCodes() const { return codes_; }
    double temperature() const { return config_.temperature; }

    /** Change the Gibbs temperature (simulated annealing). RSU
     * samplers must rebuild their intensity map afterwards; use
     * RsuGibbsSampler::setTemperature, which does both. Bumps
     * temperatureVersion() so table-driven caches (SweepCore's
     * exp tables) invalidate automatically. */
    void setTemperature(double t);

    /**
     * Counter incremented by every setTemperature() call.
     * Temperature-dependent caches key their contents to this value
     * and rebuild when it moves — how annealing invalidates the
     * fast path's exp table without any explicit notification.
     */
    uint64_t temperatureVersion() const { return temperature_version_; }
    const MrfConfig &config() const { return config_; }
    const EnergyUnit &energyUnit() const { return energy_unit_; }
    const SingletonModel &singleton() const { return singleton_; }

    Label
    label(int x, int y) const
    {
        return labels_[index(x, y)];
    }

    void
    setLabel(int x, int y, Label l)
    {
        labels_[index(x, y)] = l;
    }

    const std::vector<Label> &labels() const { return labels_; }

    /** Set every variable to label code @p l. */
    void fillLabels(Label l);

    /** Independent uniform random initialization (over codes). */
    void randomizeLabels(rsu::rng::Xoshiro256 &rng);

    /**
     * Per-site maximum-likelihood initialization: each site gets
     * the label with the smallest *singleton* energy (ignoring the
     * smoothness prior). The standard MRF-MCMC starting point — and
     * a prerequisite for the RSU path's single-pass current-label
     * energy re-referencing to be well-conditioned from the first
     * sweep (see EnergyInputs::energy_offset).
     */
    void initializeMaximumLikelihood();

    /**
     * initializeMaximumLikelihood() against an already-built
     * singleton-energy table (same result; copies the argmins the
     * table recorded instead of recomputing the model's energies).
     * The table must have been built for this model —
     * SweepTableSet::singleton() qualifies.
     */
    void
    initializeMaximumLikelihood(const rsu::core::SingletonTable &table);

    /**
     * Per-site x per-candidate singleton-energy table for this
     * model: entry (site, i) is
     * energyUnit().singleton(data1(x, y), data2(x, y, codeOf(i)))
     * saturated at kEnergyMax, and argminRow(site) is the site's
     * maximum-likelihood candidate.
     * Built once per call by scanning the static SingletonModel;
     * the table-driven sweep path and ML initialization share it.
     */
    rsu::core::SingletonTable buildSingletonTable() const;

    /**
     * buildSingletonTable() with rows padded to @p padded_labels
     * entries (kEnergyMax-filled pad lanes, for the SIMD kernels)
     * and the per-row fills optionally fanned out over worker
     * threads via @p parallel (see core::RowParallelFor) — rows are
     * independent, so the table is identical to a sequential
     * build's.
     */
    rsu::core::SingletonTable
    buildSingletonTable(int padded_labels,
                        const rsu::core::RowParallelFor &parallel) const;

    /**
     * Per-site x per-candidate staged data2 bytes (what data2At()
     * fills, for every site at once). The RSU samplers hand table
     * rows straight to the device, removing the per-site virtual
     * data2() calls from their sweeps. Assumes the singleton model
     * is static.
     */
    rsu::core::Data2Table buildData2Table() const;

    /**
     * Bulk-load a labelling.
     *
     * @throws std::invalid_argument if the size differs from
     *         size() or any label is not one of the model's codes
     */
    void setLabels(const std::vector<Label> &labels);

    /**
     * Neighbour labels, validity mask, and data1 for pixel (x, y) —
     * exactly the operand set an RSU instruction sequence transfers.
     * data2 is left 0; callers supply it per candidate.
     */
    EnergyInputs inputsAt(int x, int y) const;

    /**
     * inputsAt() with the energy re-reference set to the current
     * label's conditional energy — the operand form the RSU path
     * uses so candidate energies stay inside the LED ladder's
     * dynamic range (see EnergyInputs::energy_offset).
     */
    EnergyInputs referencedInputsAt(int x, int y) const;

    /** Fill @p out (numLabels() entries, candidate-index order)
     * with per-candidate data2. */
    void data2At(int x, int y, uint8_t *out) const;

    /** 8-bit conditional energy of label code @p l at (x, y). */
    Energy conditionalEnergy(int x, int y, Label l) const;

    /**
     * Exact full-conditional distribution at (x, y), indexed by
     * candidate index: softmax of the hardware energies at the
     * configured temperature. This is the software-reference target
     * distribution the RSU approximates.
     */
    std::vector<double> conditionalDistribution(int x, int y) const;

    /**
     * Total configuration energy: every singleton once plus every
     * lattice edge's doubleton once (unsaturated integer sum; used
     * for convergence trajectories, not by the datapath).
     * @p parallel optionally fans the rows out over worker threads
     * (runtime::parallelRowRunner): each row's exact partial sum is
     * added in row order, so the result is identical either way.
     */
    int64_t
    totalEnergy(const rsu::core::RowParallelFor &parallel = {}) const;

    int
    index(int x, int y) const
    {
        return y * config_.width + x;
    }

  private:
    MrfConfig config_;
    const SingletonModel &singleton_;
    EnergyUnit energy_unit_;
    std::vector<Label> labels_;        // current codes per site
    std::vector<Label> codes_;         // index -> code
    std::vector<int> code_to_index_;   // code -> index or -1
    uint64_t temperature_version_ = 0; // ++ per setTemperature()
};

} // namespace rsu::mrf

#endif // RSU_MRF_GRID_MRF_H
