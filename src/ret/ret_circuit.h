/**
 * @file
 * Assembled RET circuit.
 *
 * A RET circuit is the paper's unit of optical sampling (section
 * 2.3): an on-chip QD-LED bank, an ensemble of RET networks, a SPAD,
 * and the 8x-oversampled TTF timer, plus the 4-cycle quiescence
 * window that creates the structural hazard section 5.3 resolves with
 * replication.
 *
 * The circuit's architecturally visible contract is small: given a
 * 4-bit LED code, return an 8-bit quantized time-to-fluorescence
 * whose distribution is (quantized) Exp(intensity(code) * k). All
 * optical non-idealities (SPAD efficiency/dark counts, photobleach
 * wear) funnel through this one class so higher layers never touch
 * device physics directly.
 */

#ifndef RSU_RET_RET_CIRCUIT_H
#define RSU_RET_RET_CIRCUIT_H

#include <cstdint>

#include "ret/qdled.h"
#include "ret/ret_network.h"
#include "ret/spad.h"
#include "ret/ttf_timer.h"
#include "rng/xoshiro256.h"

namespace rsu::ret {

/** Construction parameters for a RET circuit. */
struct RetCircuitConfig
{
    /** Per-LED optical weights (default: binary sizing, sums tile
     * the integers 1..15). */
    std::array<double, kNumLeds> led_weights =
        QdLedBank::designWeights(kDefaultLedDynamicRange);

    /**
     * Ensemble emission rate per unit intensity (per ns). The
     * default is tuned so the brightest code has a 1 ns mean TTF at
     * a 1 GHz system clock — a few-nanosecond sample, as the paper
     * advertises.
     */
    double base_rate_per_ns = 0.0; // 0 -> derived from led_weights

    /** System clock period (ns); the TTF tick is 1/8 of this. */
    double clock_period_ns = 1.0;

    /** Cycles the circuit needs to quiesce after firing (sec. 5.3). */
    int quiescence_cycles = 4;

    /** Optical non-idealities. */
    SpadModel spad;
    WearModel wear;
};

/** A single RET circuit with scheduling state. */
class RetCircuit
{
  public:
    explicit RetCircuit(const RetCircuitConfig &config = {});

    /**
     * Fire the circuit with LED code @p code and return the
     * quantized TTF. Does not touch scheduling state; use
     * sampleAt() when modelling pipeline occupancy.
     */
    uint8_t sample(rsu::rng::Xoshiro256 &rng, uint8_t code);

    /**
     * Continuous (unquantized) detection time in ns; infinity when
     * the channel cannot fire. Exposed for the prototype emulation,
     * which times with its own 250 ps FPGA timer.
     */
    double sampleContinuousNs(rsu::rng::Xoshiro256 &rng, uint8_t code);

    /** True when the circuit may fire at @p cycle. */
    bool readyAt(uint64_t cycle) const { return cycle >= busy_until_; }

    /**
     * Fire at @p cycle (must be ready) and reserve the quiescence
     * window.
     */
    uint8_t sampleAt(rsu::rng::Xoshiro256 &rng, uint8_t code,
                     uint64_t cycle);

    /** First cycle at which the circuit is ready again. */
    uint64_t busyUntil() const { return busy_until_; }

    /**
     * Effective detection rate (per ns) for a LED code — the analytic
     * oracle for the circuit's TTF distribution.
     */
    double detectionRate(uint8_t code) const;

    const QdLedBank &leds() const { return leds_; }

    /** Detector model currently installed. */
    const SpadModel &spadModel() const { return spad_.model(); }

    /**
     * Replace the detector model (fault injection: dead detectors,
     * elevated dark counts). Validated exactly like construction.
     */
    void setSpadModel(const SpadModel &model);

    const TtfTimer &timer() const { return timer_; }
    const ExponentialNetwork &network() const { return network_; }
    ExponentialNetwork &network() { return network_; }

  private:
    QdLedBank leds_;
    ExponentialNetwork network_;
    Spad spad_;
    TtfTimer timer_;
    int quiescence_cycles_;
    uint64_t busy_until_ = 0;
};

} // namespace rsu::ret

#endif // RSU_RET_RET_CIRCUIT_H
