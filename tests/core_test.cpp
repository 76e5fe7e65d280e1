/**
 * @file
 * Unit tests for the RSU-G core: energy datapath, intensity map,
 * selection, the sampling unit itself, and the instruction
 * interface.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "core/energy_unit.h"
#include "core/intensity_map.h"
#include "core/rsu_g.h"
#include "core/rsu_isa.h"
#include "core/selection_unit.h"
#include "rng/stats.h"

namespace {

using namespace rsu::core;

TEST(EnergyUnit, ScalarDoubletonIsSquaredDifference)
{
    const EnergyUnit unit;
    EXPECT_EQ(unit.doubleton(3, 3), 0);
    EXPECT_EQ(unit.doubleton(5, 2), 9);
    EXPECT_EQ(unit.doubleton(0, 7), 49);
    // Scalar mode ignores the upper 3 bits of the label.
    EXPECT_EQ(unit.doubleton(0b111000 | 2, 2), 0);
}

TEST(EnergyUnit, DoubletonWeightScalesDistance)
{
    EnergyConfig config;
    config.doubleton_weight = 3;
    const EnergyUnit unit(config);
    EXPECT_EQ(unit.doubleton(4, 1), 27);
}

TEST(EnergyUnit, VectorDoubletonSumsComponents)
{
    EnergyConfig config;
    config.mode = LabelMode::Vector;
    const EnergyUnit unit(config);
    const Label a = packVectorLabel(1, 2);
    const Label b = packVectorLabel(4, 6);
    EXPECT_EQ(unit.doubleton(a, b), 9 + 16);
    EXPECT_EQ(unit.doubleton(a, a), 0);
}

TEST(EnergyUnit, TruncatedDoubletonCapsTheDistance)
{
    EnergyConfig config;
    config.doubleton_cap = 4;
    config.doubleton_weight = 3;
    const EnergyUnit unit(config);
    EXPECT_EQ(unit.doubleton(0, 1), 3 * 1);  // below the cap
    EXPECT_EQ(unit.doubleton(0, 2), 3 * 4);  // at the cap
    EXPECT_EQ(unit.doubleton(0, 7), 3 * 4);  // truncated
    // Vector mode truncates the summed distance.
    EnergyConfig vec = config;
    vec.mode = LabelMode::Vector;
    const EnergyUnit vunit(vec);
    EXPECT_EQ(vunit.doubleton(packVectorLabel(0, 0),
                              packVectorLabel(1, 1)),
              3 * 2);
    EXPECT_EQ(vunit.doubleton(packVectorLabel(0, 0),
                              packVectorLabel(7, 7)),
              3 * 4);
    // Zero disables truncation.
    const EnergyUnit plain;
    EXPECT_EQ(plain.doubleton(0, 7), 49);
    EnergyConfig bad;
    bad.doubleton_cap = -1;
    EXPECT_THROW(EnergyUnit{bad}, std::invalid_argument);
}

TEST(EnergyUnit, SingletonAppliesShift)
{
    EnergyConfig config;
    config.singleton_shift = 4;
    const EnergyUnit unit(config);
    EXPECT_EQ(unit.singleton(63, 0), 3969 >> 4);
    EXPECT_EQ(unit.singleton(10, 10), 0);
    EXPECT_EQ(unit.singleton(0, 16), 16);

    EnergyConfig raw;
    raw.singleton_shift = 0;
    EXPECT_EQ(EnergyUnit(raw).singleton(10, 4), 36);
}

TEST(EnergyUnit, EvaluateSumsCliquesAndSaturates)
{
    EnergyConfig config;
    config.doubleton_weight = 2;
    config.singleton_shift = 4;
    const EnergyUnit unit(config);

    EnergyInputs in;
    in.neighbors = {1, 2, 3, 4};
    in.data1 = 20;
    in.data2 = 4;
    // singleton (16^2)>>4 = 16; doubletons 2*((1)+(0)+(1)+(4)) = 12.
    EXPECT_EQ(unit.evaluate(2, in), 28);

    // Border pixel: invalid neighbours contribute nothing.
    in.neighbor_valid = {true, false, false, true};
    EXPECT_EQ(unit.evaluate(2, in), 16 + 2 * (1 + 4));

    // Saturation at 255.
    EnergyInputs hot;
    hot.neighbors = {7, 7, 7, 7};
    hot.data1 = 63;
    hot.data2 = 0;
    EnergyConfig heavy;
    heavy.doubleton_weight = 10;
    heavy.singleton_shift = 0;
    EXPECT_EQ(EnergyUnit(heavy).evaluate(0, hot), 255);
}

TEST(EnergyUnit, OffsetReReferencesWithZeroFloor)
{
    const EnergyUnit unit;
    EnergyInputs in;
    in.neighbors = {2, 2, 2, 2};
    in.data1 = 20;
    in.data2 = 20;
    const Energy base = unit.evaluate(4, in); // 4 * (2)^2 = 16
    EXPECT_EQ(base, 16);
    in.energy_offset = 10;
    EXPECT_EQ(unit.evaluate(4, in), 6);
    in.energy_offset = 30; // better than the offset: floors at 0
    EXPECT_EQ(unit.evaluate(4, in), 0);
    // The offset applies after 8-bit saturation of the clique sum.
    EnergyConfig heavy;
    heavy.doubleton_weight = 10;
    heavy.singleton_shift = 0;
    EnergyInputs hot;
    hot.neighbors = {7, 7, 7, 7};
    hot.data1 = 63;
    hot.data2 = 0;
    hot.energy_offset = 55;
    EXPECT_EQ(EnergyUnit(heavy).evaluate(0, hot), 200);
}

TEST(EnergyUnit, RejectsBadConfig)
{
    EnergyConfig bad;
    bad.doubleton_weight = -1;
    EXPECT_THROW(EnergyUnit{bad}, std::invalid_argument);
    bad = EnergyConfig{};
    bad.singleton_shift = 13;
    EXPECT_THROW(EnergyUnit{bad}, std::invalid_argument);
}

TEST(IntensityMap, BuildIsMonotoneInEnergy)
{
    const rsu::ret::QdLedBank bank;
    IntensityMap map;
    map.build(bank, 16.0);
    double prev = bank.intensity(map.lookup(0));
    EXPECT_DOUBLE_EQ(prev, bank.maxIntensity());
    for (int e = 1; e < map.entries(); ++e) {
        const double cur = bank.intensity(map.lookup(e));
        EXPECT_LE(cur, prev + 1e-12);
        prev = cur;
    }
}

TEST(IntensityMap, HighEnergiesMapToOff)
{
    const rsu::ret::QdLedBank bank;
    IntensityMap map;
    map.build(bank, 8.0);
    // exp(-255/8) is far below the dimmest LED: code 0.
    EXPECT_EQ(map.lookup(255), 0);
}

TEST(IntensityMap, LookupClampsOutOfRangeEnergies)
{
    IntensityMap map;
    map.setEntry(0, 5);
    map.setEntry(255, 9);
    EXPECT_EQ(map.lookup(-3), 5);
    EXPECT_EQ(map.lookup(400), 9);
}

TEST(IntensityMap, WordPackingRoundTrips)
{
    IntensityMap map;
    for (int e = 0; e < map.entries(); ++e)
        map.setEntry(e, static_cast<uint8_t>((e * 7) & 0x0f));
    IntensityMap copy;
    for (int w = 0; w < map.words(); ++w)
        copy.writeWord(w, map.readWord(w));
    EXPECT_TRUE(map == copy);
    EXPECT_EQ(map.sizeBytes(), 128);
    EXPECT_EQ(map.words(), 16);
}

TEST(IntensityMap, BoundsAreChecked)
{
    IntensityMap map;
    EXPECT_THROW(map.setEntry(-1, 0), std::out_of_range);
    EXPECT_THROW(map.setEntry(256, 0), std::out_of_range);
    EXPECT_THROW(map.writeWord(16, 0), std::out_of_range);
    EXPECT_THROW(map.readWord(-1), std::out_of_range);
    EXPECT_THROW(IntensityMap(1), std::invalid_argument);
}

TEST(SelectionUnit, KeepsStrictMinimum)
{
    SelectionUnit sel;
    sel.observe(4, 20);
    sel.observe(3, 10);
    sel.observe(2, 15);
    EXPECT_EQ(sel.bestLabel(), 3);
    EXPECT_EQ(sel.bestTtf(), 10);
}

TEST(SelectionUnit, TiesKeepTheIncumbent)
{
    SelectionUnit sel;
    sel.observe(5, 12);
    sel.observe(1, 12);
    EXPECT_EQ(sel.bestLabel(), 5);
}

TEST(SelectionUnit, FirstObservationAlwaysLands)
{
    SelectionUnit sel;
    sel.observe(7, 255); // saturated but first
    EXPECT_TRUE(sel.hasObservation());
    EXPECT_EQ(sel.bestLabel(), 7);
    sel.observe(2, 255);
    EXPECT_EQ(sel.bestLabel(), 7);
    sel.reset();
    EXPECT_FALSE(sel.hasObservation());
}

TEST(RsuG, LatencyMatchesPaperFormulas)
{
    // RSU-G1: 7 + (M - 1) cycles (section 5.1).
    RsuGConfig g1;
    g1.width = 1;
    RsuG unit1(g1);
    unit1.initialize(5, 16.0);
    EXPECT_EQ(unit1.latencyCycles(), 7 + (5 - 1));
    unit1.setNumLabels(49);
    EXPECT_EQ(unit1.latencyCycles(), 7 + (49 - 1));

    // RSU-G64 evaluates 64 labels in 12 cycles (section 5.1).
    RsuGConfig g64;
    g64.width = 64;
    RsuG unit64(g64);
    unit64.initialize(64, 16.0);
    EXPECT_EQ(unit64.latencyCycles(), 12);
}

TEST(RsuG, SteadyStateIntervalCoversQuiescence)
{
    RsuGConfig config;
    config.width = 1;
    config.circuits_per_lane = 4;
    config.circuit.quiescence_cycles = 4;
    RsuG unit(config);
    unit.initialize(5, 16.0);
    EXPECT_DOUBLE_EQ(unit.steadyStateIntervalCycles(), 5.0);

    // Under-replicated lanes stall: 2 circuits, 4-cycle quiescence.
    RsuGConfig starved = config;
    starved.circuits_per_lane = 2;
    RsuG hungry(starved);
    hungry.initialize(5, 16.0);
    EXPECT_DOUBLE_EQ(hungry.steadyStateIntervalCycles(), 10.0);
}

TEST(RsuG, StallCountersMatchReplication)
{
    EnergyInputs in;
    in.neighbors = {1, 1, 1, 1};
    in.data1 = 10;
    in.data2 = 10;

    RsuGConfig full;
    full.circuits_per_lane = 4;
    RsuG ok(full, 1);
    ok.initialize(8, 16.0);
    for (int i = 0; i < 50; ++i)
        ok.sample(in);
    EXPECT_EQ(ok.stats().stall_cycles, 0u);
    EXPECT_EQ(ok.stats().samples, 50u);
    EXPECT_EQ(ok.stats().label_evals, 400u);

    RsuGConfig starved;
    starved.circuits_per_lane = 1;
    RsuG stalls(starved, 1);
    stalls.initialize(8, 16.0);
    for (int i = 0; i < 50; ++i)
        stalls.sample(in);
    // One circuit with 4-cycle quiescence: 3 stall cycles per
    // issue after the first.
    EXPECT_GT(stalls.stats().stall_cycles, 0u);
    EXPECT_NEAR(static_cast<double>(stalls.stats().stall_cycles) /
                    stalls.stats().label_evals,
                3.0, 0.1);
}

TEST(RsuG, RaceDistributionIsNormalized)
{
    RsuG unit;
    unit.initialize(5, 16.0);
    EnergyInputs in;
    in.neighbors = {0, 1, 2, 3};
    in.data1 = 30;
    in.data2 = 20;
    const auto dist = unit.raceDistribution(in);
    EXPECT_EQ(dist.size(), 5u);
    const double total =
        std::accumulate(dist.begin(), dist.end(), 0.0);
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(RsuG, RaceDistributionTracksSoftmax)
{
    // Well-conditioned energies: the quantized race should be close
    // to the ideal Gibbs conditional.
    RsuG unit;
    const double t = 16.0;
    unit.initialize(4, t);
    EnergyInputs in;
    in.neighbors = {0, 0, 1, 1};
    in.data1 = 24;

    std::vector<uint8_t> data2 = {24, 30, 18, 40};
    const auto dist = unit.raceDistribution(in, data2.data());

    std::vector<double> soft(4);
    double z = 0.0;
    for (int i = 0; i < 4; ++i) {
        const Energy e = unit.labelEnergy(
            static_cast<Label>(i), in, data2[i]);
        soft[i] = std::exp(-static_cast<double>(e) / t);
        z += soft[i];
    }
    for (int i = 0; i < 4; ++i) {
        soft[i] /= z;
        EXPECT_NEAR(dist[i], soft[i], 0.05)
            << "label " << i;
    }
}

TEST(RsuG, SampleHistogramMatchesRaceDistribution)
{
    RsuG unit(RsuGConfig{}, 12345);
    unit.initialize(5, 16.0);
    EnergyInputs in;
    in.neighbors = {1, 2, 2, 3};
    in.data1 = 25;
    std::vector<uint8_t> data2 = {12, 25, 31, 40, 55};

    const auto expected = unit.raceDistribution(in, data2.data());
    std::vector<uint64_t> counts(5, 0);
    constexpr int kDraws = 60000;
    for (int i = 0; i < kDraws; ++i)
        ++counts[unit.sample(in, data2.data())];

    const double stat =
        rsu::rng::chiSquareStatistic(counts, expected);
    EXPECT_LT(stat, rsu::rng::chiSquareCritical(4, 0.001));
}

TEST(RsuG, WideUnitSamplesSameDistribution)
{
    EnergyInputs in;
    in.neighbors = {1, 1, 3, 3};
    in.data1 = 30;
    std::vector<uint8_t> data2 = {20, 28, 35, 42, 50};

    RsuGConfig wide;
    wide.width = 4;
    RsuG unit(wide, 777);
    unit.initialize(5, 16.0);

    const auto expected = unit.raceDistribution(in, data2.data());
    std::vector<uint64_t> counts(5, 0);
    constexpr int kDraws = 60000;
    for (int i = 0; i < kDraws; ++i)
        ++counts[unit.sample(in, data2.data())];
    const double stat =
        rsu::rng::chiSquareStatistic(counts, expected);
    EXPECT_LT(stat, rsu::rng::chiSquareCritical(4, 0.001));
}

TEST(RsuG, DecodeTableRemapsCandidates)
{
    RsuG unit(RsuGConfig{}, 99);
    unit.initialize(3, 16.0);
    unit.setLabelCodes({10, 20, 30});
    EnergyInputs in;
    in.neighbors = {10, 10, 10, 10};
    in.data1 = 0;
    in.data2 = 0;
    for (int i = 0; i < 64; ++i) {
        const Label code = unit.sample(in);
        EXPECT_TRUE(code == 10 || code == 20 || code == 30);
    }
    EXPECT_THROW(unit.setLabelCodes({1, 2}), std::invalid_argument);
}

TEST(RsuG, RejectsBadConfigs)
{
    RsuGConfig bad;
    bad.width = 0;
    EXPECT_THROW(RsuG{bad}, std::invalid_argument);
    bad = RsuGConfig{};
    bad.circuits_per_lane = 0;
    EXPECT_THROW(RsuG{bad}, std::invalid_argument);
    RsuG unit;
    EXPECT_THROW(unit.setNumLabels(0), std::invalid_argument);
    EXPECT_THROW(unit.setNumLabels(65), std::invalid_argument);
    EXPECT_THROW(unit.initialize(4, -1.0), std::invalid_argument);
}

TEST(RsuG, CircuitAccessorChecksIndex)
{
    RsuGConfig config;
    config.width = 2;
    config.circuits_per_lane = 3;
    RsuG unit(config, 7);
    EXPECT_NO_THROW(unit.circuit(0, 0));
    EXPECT_NO_THROW(unit.circuit(1, 2));
    EXPECT_THROW(unit.circuit(-1, 0), std::out_of_range);
    EXPECT_THROW(unit.circuit(2, 0), std::out_of_range);
    EXPECT_THROW(unit.circuit(0, -1), std::out_of_range);
    EXPECT_THROW(unit.circuit(0, 3), std::out_of_range);
}

TEST(RsuIsa, NeighborPackingRoundTrips)
{
    const std::array<Label, 4> labels = {5, 0, 63, 17};
    const std::array<bool, 4> valid = {true, false, true, false};
    const uint64_t word = packNeighbors(labels, valid);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ((word >> (6 * i)) & 0x3f, labels[i] & 0x3f);
        EXPECT_EQ(((word >> (24 + i)) & 1) == 0, valid[i]);
    }
}

TEST(RsuIsa, SingletonPackingReplicatesShortWrites)
{
    const uint8_t values[3] = {7, 9, 11};
    const uint64_t word = packSingletonD(values, 3);
    EXPECT_EQ((word >> 0) & 0x3f, 7u);
    EXPECT_EQ((word >> 8) & 0x3f, 9u);
    EXPECT_EQ((word >> 16) & 0x3f, 11u);
    // Padding lanes repeat the last value.
    EXPECT_EQ((word >> 56) & 0x3f, 11u);
    EXPECT_THROW(packSingletonD(values, 0), std::invalid_argument);
    EXPECT_THROW(packSingletonD(values, 9), std::invalid_argument);
}

TEST(RsuIsa, DeviceSamplesTheConfiguredModel)
{
    RsuG unit(RsuGConfig{}, 4242);
    unit.initialize(5, 16.0);
    RsuDevice dev(unit);

    EnergyInputs in;
    in.neighbors = {1, 2, 3, 4};
    in.data1 = 22;
    std::vector<uint8_t> data2 = {10, 20, 30, 40, 50};

    const auto expected = unit.raceDistribution(in, data2.data());

    std::vector<uint64_t> counts(5, 0);
    constexpr int kDraws = 40000;
    for (int i = 0; i < kDraws; ++i) {
        dev.write(RsuReg::Neighbors,
                  packNeighbors(in.neighbors, in.neighbor_valid));
        dev.write(RsuReg::SingletonA, in.data1);
        dev.write(RsuReg::SingletonD,
                  packSingletonD(data2.data(), 5));
        const auto result = dev.readResult();
        EXPECT_EQ(result.latency_cycles, 7 + 4);
        ++counts[result.label];
    }
    const double stat =
        rsu::rng::chiSquareStatistic(counts, expected);
    EXPECT_LT(stat, rsu::rng::chiSquareCritical(4, 0.001));
    EXPECT_EQ(dev.instructionCount(), kDraws * 4u);
}

TEST(RsuIsa, MapTableWritesReachTheLut)
{
    RsuG unit;
    unit.initialize(2, 16.0);
    RsuDevice dev(unit);
    dev.write(RsuReg::DownCounter, 1); // resets stream pointers
    // Fill the whole LUT with a known pattern through the hi/lo
    // streams.
    for (int w = 0; w < 8; ++w)
        dev.write(RsuReg::MapLo, 0x1111111111111111ULL * (w % 4));
    for (int w = 0; w < 8; ++w)
        dev.write(RsuReg::MapHi, 0x2222222222222222ULL);
    EXPECT_EQ(unit.intensityMap().lookup(0), 0x0);
    EXPECT_EQ(unit.intensityMap().lookup(16), 0x1);
    EXPECT_EQ(unit.intensityMap().lookup(200), 0x2);
}

TEST(RsuIsa, EnergyOffsetRegisterReReferences)
{
    RsuG unit(RsuGConfig{}, 321);
    unit.initialize(2, 16.0);
    RsuDevice dev(unit);

    // Two candidates with large common energy but a small genuine
    // difference (below the 8-bit saturation point): without the
    // offset both map past the LED ladder's range (all channels
    // dark, the first-evaluated candidate wins by default); with
    // the offset the difference drives a live race.
    EnergyInputs in;
    in.neighbors = {5, 5, 5, 5};
    in.data1 = 40;
    uint8_t data2[2] = {40, 8};
    EnergyConfig cfg;
    cfg.doubleton_weight = 2;
    RsuGConfig config;
    config.energy = cfg;
    RsuG unit2(config, 321);
    unit2.initialize(2, 16.0);
    RsuDevice dev2(unit2);
    // Energies: label 0 = 4*2*25 + 0 = 200; label 1 = 4*2*16 +
    // (32^2 >> 4) = 128 + 64 = 192. Both >> T*ln(30) ~ 54.

    auto count_zero = [&](uint8_t offset) {
        int zeros = 0;
        for (int i = 0; i < 4000; ++i) {
            dev2.write(RsuReg::Neighbors,
                       packNeighbors(in.neighbors));
            dev2.write(RsuReg::SingletonA, in.data1);
            dev2.write(RsuReg::SingletonD,
                       packSingletonD(data2, 2));
            dev2.write(RsuReg::EnergyOffset, offset);
            if (dev2.readResult().label == 0)
                ++zeros;
        }
        return zeros;
    };

    // Unreferenced: all channels dark, the incumbent (index 1,
    // evaluated first) always wins — label 0 never appears, for
    // the wrong reason.
    EXPECT_EQ(count_zero(0), 0);
    // Referenced to the better candidate (192): E' = {8, 0}, a
    // live race where label 0 wins with probability
    // ~exp(-8/16) / (1 + exp(-8/16)) ~ 0.38.
    const int zeros_ref = count_zero(192);
    EXPECT_GT(zeros_ref, 800);
    EXPECT_LT(zeros_ref, 2400);
}

TEST(RsuIsa, MapStreamPointersWrapPerHalf)
{
    RsuG unit;
    unit.initialize(2, 16.0);
    RsuDevice dev(unit);
    dev.write(RsuReg::DownCounter, 1);
    // 9 writes to MapLo: the 9th wraps to word 0 again.
    for (int i = 0; i < 8; ++i)
        dev.write(RsuReg::MapLo, 0x1111111111111111ULL);
    dev.write(RsuReg::MapLo, 0x7777777777777777ULL);
    EXPECT_EQ(unit.intensityMap().lookup(0), 0x7);
    EXPECT_EQ(unit.intensityMap().lookup(16), 0x1);
}

TEST(RsuIsa, ContextSaveRestoreRoundTrips)
{
    RsuG unit_a;
    unit_a.initialize(7, 12.0);
    RsuDevice dev_a(unit_a);
    const RsuContext ctx = dev_a.saveContext();
    EXPECT_EQ(ctx.down_counter, 6);
    EXPECT_EQ(ctx.map_words.size(), 16u);

    RsuG unit_b;
    unit_b.initialize(2, 99.0); // different application state
    RsuDevice dev_b(unit_b);
    dev_b.restoreContext(ctx);
    EXPECT_EQ(unit_b.numLabels(), 7);
    EXPECT_TRUE(unit_b.intensityMap() == unit_a.intensityMap());
}

TEST(RsuIsa, ReadResultIsTheRestartBoundary)
{
    RsuG unit(RsuGConfig{}, 5);
    unit.initialize(3, 16.0);
    RsuDevice dev(unit);
    EnergyInputs in;
    in.neighbors = {0, 0, 0, 0};

    // Stream per-label data, read, then read again with fresh data:
    // the second evaluation must not see the first stream.
    uint8_t first[3] = {0, 0, 63};
    dev.write(RsuReg::Neighbors, packNeighbors(in.neighbors));
    dev.write(RsuReg::SingletonA, 63);
    dev.write(RsuReg::SingletonD, packSingletonD(first, 3));
    (void)dev.readResult();

    // Without new SINGLETON_D writes the fifo is empty: data2 = 0
    // for every candidate, which with data1 = 0 gives a nearly
    // uniform conditional. Label 2's singleton would have been 0
    // under the stale stream.
    dev.write(RsuReg::SingletonA, 0);
    std::vector<uint64_t> counts(3, 0);
    for (int i = 0; i < 30000; ++i) {
        dev.write(RsuReg::Neighbors, packNeighbors(in.neighbors));
        ++counts[dev.readResult().label];
    }
    // Doubletons still differ per label (neighbours are 0), but the
    // saturated singleton from the stale stream would have crushed
    // labels 0/1 to near-zero probability. Check label 0 dominates
    // instead (neighbour agreement).
    EXPECT_GT(counts[0], counts[2]);
}

} // namespace
