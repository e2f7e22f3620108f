/**
 * @file
 * The branch-free device write path against its serial reference
 * (pcm/program_reference.hh): WriteUnit::program and
 * DisturbanceModel::sample must reproduce the cell-by-cell
 * formulation bit for bit — WriteStats bytes, stored cells, update
 * and disturbed masks, and the rng state after the write.
 *
 * The grid crosses line sizes at word edges (1, 63, 64, 65, 256,
 * 257, 768 cells), every aux layout, DER tables with dead (0),
 * certain (1.0), subnormal and NaN rates, and energy models on both
 * sides of the integer-exactness rule (Table II and Figure 14 levels
 * sum per state; fractional ones take the ordered fallback), with
 * Verify-n-Restore on and off.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "pcm/device.hh"
#include "pcm/disturbance.hh"
#include "pcm/energy_model.hh"
#include "pcm/program_reference.hh"
#include "pcm/wear.hh"
#include "pcm/write_unit.hh"

namespace
{

using namespace wlcrc;
using namespace wlcrc::pcm;

const unsigned sizes[] = {1, 63, 64, 65, 256, 257, 768};

constexpr double nan = std::numeric_limits<double>::quiet_NaN();
constexpr double subnormal = std::numeric_limits<double>::denorm_min();

struct DerCase
{
    const char *name;
    std::array<double, numStates> der;
    /** The VnR loop converges: no rate near the critical spread. */
    bool vnr;
};

const DerCase derCases[] = {
    {"table2", {0.123, 0.0, 0.276, 0.152}, true},
    {"zero", {0.0, 0.0, -0.0, 0.0}, true},
    {"certain", {1.0, 0.0, 1.0, 0.5}, false},
    {"subnormal", {subnormal, 0.0, 0.25, subnormal}, true},
    {"nan", {nan, 0.2, nan, 0.1}, true},
};

struct EnergyCase
{
    const char *name;
    EnergyModel energy;
    bool exact; //!< expected WriteUnit::exactEnergySums()
};

const EnergyCase energyCases[] = {
    {"table2", EnergyModel(), true},
    {"fig14-152-273", EnergyModel::withHighStateEnergies(152, 273), true},
    {"fig14-50-80", EnergyModel::withHighStateEnergies(50, 80), true},
    {"fractional", EnergyModel::withHighStateEnergies(153.3, 273.7),
     false},
    {"fractional-reset", EnergyModel(36.5, {0.0, 20.0, 307.0, 547.0}),
     false},
};

TEST(DeviceProgramEquivalence, ProgramMatchesSerialReference)
{
    Rng rng(2024);
    std::vector<State> stored;
    TargetLine target;
    unsigned checked = 0;
    for (const EnergyCase &e : energyCases) {
        for (const DerCase &d : derCases) {
            const WriteUnit unit(e.energy, DisturbanceModel(d.der));
            ASSERT_EQ(unit.exactEnergySums(), e.exact) << e.name;
            for (const unsigned n : sizes) {
                for (const bool vnr : {false, true}) {
                    if (vnr && !d.vnr)
                        continue;
                    for (int trial = 0; trial < 16; ++trial) {
                        reference::randomCase(rng, n, stored, target);
                        const std::string diff = reference::diffProgram(
                            unit, stored, target, rng.next(), vnr);
                        ASSERT_EQ(diff, "")
                            << "energy " << e.name << ", der " << d.name
                            << ", " << n << " cells, vnr " << vnr
                            << ", trial " << trial;
                        ++checked;
                    }
                }
            }
        }
    }
    EXPECT_GT(checked, 1000u);
}

TEST(DeviceProgramEquivalence, SampleMatchesSerialReference)
{
    Rng rng(77);
    std::vector<State> cells;
    for (const DerCase &d : derCases) {
        const DisturbanceModel model(d.der);
        for (const unsigned n : sizes) {
            for (int trial = 0; trial < 20; ++trial) {
                cells.resize(n);
                CellMask updated;
                updated.reset(n);
                // From a lone programmed cell to a full line.
                const double density = rng.nextDouble();
                for (unsigned i = 0; i < n; ++i) {
                    cells[i] =
                        stateFromIndex(static_cast<unsigned>(rng.next()));
                    if (rng.chance(density))
                        updated.set(i);
                }
                ASSERT_EQ(reference::diffSample(model, cells, updated,
                                                rng.next()),
                          "")
                    << "der " << d.name << ", " << n << " cells, trial "
                    << trial;
            }
        }
    }
}

TEST(DeviceProgramEquivalence, DrawThresholdIsExactlyChance)
{
    // (x >> 11) < T must hold for exactly the draws where
    // nextDouble() < p; check the integers on both sides of T.
    const double rates[] = {subnormal,  0x1.0p-53, 0x1.8p-53,
                            0x1.0p-52,  0.123,     0.152,
                            0.276,      0.5,       1e-300,
                            std::nextafter(1.0, 0.0)};
    for (const double p : rates) {
        const DisturbanceModel m({p, p, p, p});
        const uint64_t t = m.drawThreshold(State::S1);
        ASSERT_GT(t, 0u) << p;
        ASSERT_LE(t, uint64_t{1} << 53) << p;
        EXPECT_TRUE((t - 1) * 0x1.0p-53 < p) << p;
        if (t < (uint64_t{1} << 53)) {
            EXPECT_FALSE(t * 0x1.0p-53 < p) << p;
        }
    }
    const DisturbanceModel edges({0.0, nan, 1.0, 2.0});
    EXPECT_EQ(edges.drawThreshold(State::S1), 0u);
    EXPECT_EQ(edges.drawThreshold(State::S2), 0u);
    EXPECT_EQ(edges.drawThreshold(State::S3), uint64_t{1} << 53);
    EXPECT_EQ(edges.drawThreshold(State::S4), uint64_t{1} << 53);
}

TEST(DeviceProgramEquivalence, WearRecordsTheProgramMask)
{
    // The device hands the tracker the mask program() computed; a
    // write that programs nothing must leave the line untracked.
    const unsigned n = 65;
    const WriteUnit unit{EnergyModel(), DisturbanceModel()};
    Device dev(n, unit, 3);
    WearTracker wear(n);
    dev.attachWearTracker(&wear);
    Rng rng(9);
    std::vector<uint32_t> want(n, 0);
    std::vector<State> stored;
    TargetLine target;
    for (int write = 0; write < 40; ++write) {
        reference::randomCase(rng, n, stored, target);
        auto &line = dev.line(5);
        for (unsigned i = 0; i < n; ++i)
            want[i] += line[i] != target[i];
        dev.writeLine(5, line, target);
    }
    ASSERT_NE(wear.lineWear(5), nullptr);
    EXPECT_EQ(*wear.lineWear(5), want);

    target.reset(n);
    for (unsigned i = 0; i < n; ++i)
        target[i] = State::S1;
    dev.write(9, target); // a fresh line is all S1: nothing differs
    EXPECT_EQ(wear.lineWear(9), nullptr);
    EXPECT_EQ(wear.trackedLines(), 1u);
}

} // namespace
