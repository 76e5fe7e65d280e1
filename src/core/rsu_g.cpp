#include "core/rsu_g.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace rsu::core {

namespace {

int
ceilDiv(int a, int b)
{
    return (a + b - 1) / b;
}

int
ceilLog2(int x)
{
    int bits = 0;
    int v = 1;
    while (v < x) {
        v <<= 1;
        ++bits;
    }
    return bits;
}

} // namespace

RsuGStats &
RsuGStats::operator+=(const RsuGStats &other)
{
    samples += other.samples;
    label_evals += other.label_evals;
    issue_cycles += other.issue_cycles;
    stall_cycles += other.stall_cycles;
    saturated_ttfs += other.saturated_ttfs;
    all_saturated_races += other.all_saturated_races;
    reraces += other.reraces;
    unrecovered_races += other.unrecovered_races;
    return *this;
}

RsuG::RsuG(const RsuGConfig &config, uint64_t seed)
    : config_(config),
      rng_(seed),
      energy_unit_(config.energy)
{
    if (config_.width < 1 || config_.width > kMaxLabels)
        throw std::invalid_argument("RsuG: width out of range");
    if (config_.circuits_per_lane < 1)
        throw std::invalid_argument("RsuG: need at least one RET "
                                    "circuit per lane");
    const int total = config_.width * config_.circuits_per_lane;
    circuits_.reserve(total);
    for (int i = 0; i < total; ++i)
        circuits_.emplace_back(config_.circuit);
    lane_next_replica_.assign(config_.width, 0);
    setNumLabels(num_labels_);
}

void
RsuG::initialize(int num_labels, double temperature)
{
    setNumLabels(num_labels);
    lut_.build(rsu::ret::QdLedBank(config_.circuit.led_weights),
               temperature);
    temperature_ = temperature;
}

void
RsuG::setNumLabels(int num_labels)
{
    if (num_labels < 1 || num_labels > kMaxLabels)
        throw std::invalid_argument("RsuG: label count out of range");
    num_labels_ = num_labels;
    codes_.resize(num_labels_);
    for (int i = 0; i < num_labels_; ++i)
        codes_[i] = static_cast<Label>(i);
}

void
RsuG::setLabelCodes(const std::vector<Label> &codes)
{
    if (static_cast<int>(codes.size()) != num_labels_)
        throw std::invalid_argument("RsuG: decode table size must "
                                    "equal the label count");
    codes_ = codes;
}

RsuG::Energies
RsuG::referencedEnergies(const EnergyInputs &in,
                         const uint8_t *data2_per_label) const
{
    const int m = num_labels_;
    // In two-pass mode the min pass supersedes any caller-provided
    // re-reference: energies are computed raw so the zero floor
    // cannot discard differences before the minimum is known.
    EnergyInputs local = in;
    if (config_.two_pass_offset)
        local.energy_offset = 0;

    Energies energies{};
    for (int i = 0; i < m; ++i) {
        const uint8_t data2 =
            data2_per_label ? data2_per_label[i] : in.data2;
        energies[i] = labelEnergy(codes_[i], local, data2);
    }
    if (config_.two_pass_offset) {
        Energy lo = energies[0];
        for (int i = 1; i < m; ++i)
            lo = std::min(lo, energies[i]);
        for (int i = 0; i < m; ++i)
            energies[i] = static_cast<Energy>(energies[i] - lo);
    }
    return energies;
}

void
RsuG::raceOnce(SelectionUnit &selection, const Energies &energies)
{
    const int m = num_labels_;
    const int k = config_.width;
    const int r = config_.circuits_per_lane;

    // Down-counter order: candidate index M-1 is evaluated first.
    // K labels issue per cycle in lockstep across the lanes; a
    // group waits until every lane it needs has a quiescent
    // circuit.
    int remaining = m;
    int label = m - 1;
    while (remaining > 0) {
        const int group = std::min(remaining, k);

        // Lockstep issue: the group goes when the least-ready lane
        // has a free circuit. Round-robin replica choice per lane.
        uint64_t ready_cycle = cycle_;
        for (int lane = 0; lane < group; ++lane) {
            const int replica = lane_next_replica_[lane];
            const auto &circ = circuits_[lane * r + replica];
            ready_cycle = std::max(ready_cycle, circ.busyUntil());
        }
        stats_.stall_cycles += ready_cycle - cycle_;
        cycle_ = ready_cycle;

        for (int lane = 0; lane < group; ++lane) {
            const int cand_index = label - lane;
            const Label candidate = codes_[cand_index];
            uint8_t code = lut_.lookup(energies[cand_index]);
            if (faults_active_)
                code = static_cast<uint8_t>(
                    (code | faults_.led_stuck_high[lane]) &
                    ~faults_.led_stuck_low[lane] & 0xF);

            const int replica = lane_next_replica_[lane];
            lane_next_replica_[lane] = (replica + 1) % r;
            auto &circ = circuits_[lane * r + replica];
            uint8_t ttf = circ.sampleAt(rng_, code, cycle_);
            if (faults_active_ && (faults_.force_ttf_saturation ||
                                   faults_.dead_spad[lane]))
                ttf = rsu::ret::kTtfSaturated;
            if (ttf == rsu::ret::kTtfSaturated)
                ++stats_.saturated_ttfs;
            selection.observe(candidate, ttf);
            ++stats_.label_evals;
        }
        ++cycle_;
        ++stats_.issue_cycles;
        label -= group;
        remaining -= group;
    }
}

Label
RsuG::sample(const EnergyInputs &in, const uint8_t *data2_per_label)
{
    SelectionUnit selection;
    const int m = num_labels_;
    const int k = config_.width;

    const Energies energies = referencedEnergies(in, data2_per_label);
    if (config_.two_pass_offset) {
        // The min-reference pass occupies the energy stage for an
        // extra ceil(M/K) cycles before firing can start.
        const uint64_t pass = (m + k - 1) / k;
        cycle_ += pass;
        stats_.issue_cycles += pass;
    }

    raceOnce(selection, energies);

    // Bounded re-race-then-report protocol: an all-saturated race
    // has no winner (the selection keeps the first-evaluated
    // candidate), so a faulted unit retries a bounded number of
    // times and, failing that, reports it. max_reraces is 0 unless
    // injectFaults() raised it, so fault-free sampling consumes
    // entropy exactly as before.
    const int max_reraces = faults_active_ ? faults_.max_reraces : 0;
    int attempts = 0;
    while (selection.bestTtf() == rsu::ret::kTtfSaturated &&
           attempts < max_reraces) {
        ++stats_.all_saturated_races;
        ++stats_.reraces;
        ++attempts;
        selection.reset();
        raceOnce(selection, energies);
    }
    if (selection.bestTtf() == rsu::ret::kTtfSaturated) {
        ++stats_.all_saturated_races;
        if (faults_active_) {
            ++stats_.unrecovered_races;
            if (faults_.failure_threshold > 0 &&
                stats_.unrecovered_races >= faults_.failure_threshold)
                failed_ = true;
        }
    }

    ++stats_.samples;
    return selection.bestLabel();
}

void
RsuG::injectFaults(const rsu::ret::UnitFaults &faults)
{
    const auto lanes = static_cast<std::size_t>(config_.width);
    if (faults.led_stuck_high.size() != lanes ||
        faults.led_stuck_low.size() != lanes ||
        faults.dead_spad.size() != lanes)
        throw std::invalid_argument(
            "RsuG: fault lane vectors must match the unit width");
    if (faults.max_reraces < 0)
        throw std::invalid_argument(
            "RsuG: need max_reraces >= 0");
    faults_ = faults;
    // A plan slice that afflicted nothing leaves the unit healthy:
    // the health policy only arms alongside an actual affliction, so
    // unafflicted units keep consuming entropy exactly as before.
    faults_active_ = faults_.any();
    if (faults_.dark_rate_per_ns > 0.0) {
        for (auto &circ : circuits_) {
            rsu::ret::SpadModel model = circ.spadModel();
            model.dark_rate_per_ns += faults_.dark_rate_per_ns;
            circ.setSpadModel(model);
        }
    }
}

Energy
RsuG::labelEnergy(Label candidate, const EnergyInputs &in,
                  uint8_t data2) const
{
    EnergyInputs local = in;
    local.data2 = data2;
    return energy_unit_.evaluate(candidate, local);
}

std::vector<double>
RsuG::raceDistribution(const EnergyInputs &in,
                       const uint8_t *data2_per_label) const
{
    // Oracle assumes homogeneous circuits (valid whenever wear and
    // per-circuit noise are disabled or identical): use lane 0,
    // replica 0 for the energy-to-rate conversion.
    const auto &circ = circuits_.front();
    const auto &timer = circ.timer();
    const int m = num_labels_;
    constexpr int kSat = rsu::ret::kTtfSaturated;

    // Rates in *evaluation order* (down counter: index M-1 first).
    const Energies energies = referencedEnergies(in, data2_per_label);
    std::vector<double> rates(m);
    for (int pos = 0; pos < m; ++pos) {
        const int cand_index = m - 1 - pos;
        rates[pos] =
            circ.detectionRate(lut_.lookup(energies[cand_index]));
    }

    // Tick pmf and survival per evaluation position.
    // survival[pos][q] = P(ttf_pos > q); survival at q = kSat is 0.
    auto survival = [&](int pos, int q) -> double {
        if (q < 0)
            return 1.0;
        if (q >= kSat)
            return 0.0;
        if (rates[pos] <= 0.0)
            return 1.0; // never fires before saturation
        const double a = rates[pos] * timer.tickNs();
        return std::exp(-a * static_cast<double>(q + 1));
    };

    std::vector<double> win(m, 0.0);
    for (int pos = 0; pos < m; ++pos) {
        double total = 0.0;
        for (int q = 0; q <= kSat; ++q) {
            const double pq = timer.tickProbability(
                rates[pos], static_cast<uint8_t>(q));
            if (pq <= 0.0)
                continue;
            // Earlier-evaluated labels are incumbents: they must be
            // strictly later (ttf > q). Later-evaluated labels lose
            // ties: they must be >= q.
            double factor = 1.0;
            for (int j = 0; j < m && factor > 0.0; ++j) {
                if (j == pos)
                    continue;
                factor *= (j < pos) ? survival(j, q)
                                    : survival(j, q - 1);
            }
            total += pq * factor;
        }
        win[pos] = total;
    }

    // Re-index from evaluation order to label order.
    std::vector<double> by_label(m, 0.0);
    for (int pos = 0; pos < m; ++pos)
        by_label[m - 1 - pos] = win[pos];
    return by_label;
}

int
RsuG::latencyCycles() const
{
    // Shared pipeline model: label/energy/map/sample stages plus the
    // issue iterations plus the selection tree for wide units.
    // K = 1: 6 + M            == the paper's 7 + (M - 1).
    // K = 64, M = 64: 6 + 1 + 5 == the paper's 12 cycles.
    // Two-pass min-referencing adds one more pass over the labels.
    const int groups = ceilDiv(num_labels_, config_.width);
    const int tree =
        config_.width > 1 ? ceilLog2(config_.width) - 1 : 0;
    const int passes = config_.two_pass_offset ? 2 : 1;
    return 6 + passes * groups + tree;
}

double
RsuG::steadyStateIntervalCycles() const
{
    const int groups = ceilDiv(num_labels_, config_.width);
    const double quiescence =
        static_cast<double>(config_.circuit.quiescence_cycles);
    const double per_group = std::max(
        1.0, quiescence / config_.circuits_per_lane);
    const double extra = config_.two_pass_offset ? groups : 0.0;
    return groups * per_group + extra;
}

rsu::ret::RetCircuit &
RsuG::circuit(int lane, int replica)
{
    if (lane < 0 || lane >= config_.width || replica < 0 ||
        replica >= config_.circuits_per_lane)
        throw std::out_of_range(
            "RsuG: no circuit (" + std::to_string(lane) + ", " +
            std::to_string(replica) + ")");
    return circuits_[lane * config_.circuits_per_lane + replica];
}

} // namespace rsu::core
