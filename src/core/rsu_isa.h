/**
 * @file
 * The RSU instruction-set interface.
 *
 * Paper section 6.1 exposes the RSU-G through one instruction,
 * `RSU op, regsrc, regdest`: the op field names one of six control
 * registers plus a read-result bit. This module models the device
 * side of that contract — the control-register file, the write
 * semantics, the blocking read-result, and the context-switch
 * save/restore path with the idempotent random-variable-boundary
 * restart optimization.
 *
 * Register map (3-bit op encoding):
 *   0 MAP_LO      auto-incrementing 64-bit stream into the lower
 *                 half of the intensity map (16 packed entries/write)
 *   1 MAP_HI      same, upper half
 *   2 DOWN_COUNTER  6-bit M-1 value; also resets the staging state
 *   3 NEIGHBORS   four 6-bit labels packed in bits [23:0], invalid
 *                 mask in bits [27:24] (set bit = neighbour absent,
 *                 used at image borders)
 *   4 SINGLETON_A 6-bit first data input
 *   5 SINGLETON_D per-candidate second data input stream: each write
 *                 carries up to eight 6-bit values in byte lanes;
 *                 candidates beyond the written count reuse the last
 *                 value (scalar applications write once)
 *   6 ENERGY_OFFSET  8-bit energy re-reference subtracted from every
 *                 candidate energy before the intensity lookup (our
 *                 extension over the paper's six registers — the
 *                 3-bit op field has room; see
 *                 EnergyInputs::energy_offset for why it is needed)
 *
 * A read-result executes the full evaluation (the emulation's atomic
 * equivalent of the hardware's M-cycle iteration), returns the new
 * label, and resets the unit for the next random variable — exactly
 * the restart boundary the paper uses to shrink context-switch state
 * to per-application values only.
 */

#ifndef RSU_CORE_RSU_ISA_H
#define RSU_CORE_RSU_ISA_H

#include <array>
#include <cstdint>
#include <vector>

#include "core/rsu_g.h"

namespace rsu::core {

/** Control-register selectors (the instruction's 3-bit op field). */
enum class RsuReg : uint8_t {
    MapLo = 0,
    MapHi = 1,
    DownCounter = 2,
    Neighbors = 3,
    SingletonA = 4,
    SingletonD = 5,
    EnergyOffset = 6,
};

/** Pack four neighbour labels and an invalid mask for NEIGHBORS. */
uint64_t packNeighbors(const std::array<Label, 4> &labels,
                       const std::array<bool, 4> &valid = {true, true,
                                                           true, true});

/** Pack up to eight 6-bit data values for a SINGLETON_D write. */
uint64_t packSingletonD(const uint8_t *values, int count);

/** SINGLETON_D writes one sample over @p num_labels candidates
 * needs (eight values per word). */
constexpr int
singletonDWords(int num_labels)
{
    return (num_labels + 7) / 8;
}

/** RSU instructions one sample issues (paper section 6.1): the
 * NEIGHBORS, SINGLETON_A and ENERGY_OFFSET writes, the SINGLETON_D
 * words and one read-result. */
constexpr int
instructionsPerSample(int num_labels)
{
    return 4 + singletonDWords(num_labels);
}

/** Architected per-application state (context-switch payload). */
struct RsuContext
{
    std::vector<uint64_t> map_words;
    uint8_t down_counter = 1; // M - 1
    double temperature = 0.0; // bookkeeping only (not hardware state)
};

/** Device-side model of an RSU-G behind the RSU instruction. */
class RsuDevice
{
  public:
    /** Wrap (and not own) an RSU-G unit. */
    explicit RsuDevice(RsuG &unit);

    /** Execute a control-register write. */
    void write(RsuReg reg, uint64_t value);

    /** Result of a read-result instruction. */
    struct ReadResult
    {
        Label label;        //!< the new random-variable label
        int latency_cycles; //!< cycles the reading thread stalls
    };

    /**
     * Execute the read-result form: runs the evaluation over all
     * configured labels, resets the staging state, and returns the
     * sampled label with the stall latency the software would see.
     */
    ReadResult readResult();

    /**
     * Save the architected per-application state. Because reads are
     * the idempotent restart boundary, no mid-evaluation state is
     * ever architecturally visible (paper section 6.1, "Context
     * Switches").
     */
    RsuContext saveContext() const;

    /** Restore previously saved state into the wrapped unit. */
    void restoreContext(const RsuContext &ctx);

    /** Dynamic instruction count executed so far (writes + reads). */
    uint64_t instructionCount() const { return instructions_; }

    RsuG &unit() { return unit_; }

  private:
    RsuG &unit_;
    EnergyInputs staged_;
    std::vector<uint8_t> data2_fifo_;
    int map_lo_ptr_ = 0;
    int map_hi_ptr_ = 0;
    uint64_t instructions_ = 0;
};

} // namespace rsu::core

#endif // RSU_CORE_RSU_ISA_H
