/**
 * @file
 * The Verify-n-Restore bound. A DER table with a certain disturbance
 * of the state a repair RESETs to never converges: each repair
 * disturbs a neighbour, whose repair disturbs it back. Such a write
 * must stop at WriteUnit::maxVnrIterations and say so in
 * WriteStats::vnrCapped, the replay must count it, and the report
 * must carry the count only when it is non-zero. ctest runs this
 * binary under a TIMEOUT, so a loop without its bound fails here
 * instead of hanging the suite.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "common/rng.hh"
#include "pcm/program_reference.hh"
#include "pcm/write_unit.hh"
#include "runner/json_mini.hh"
#include "runner/report.hh"
#include "trace/replay.hh"
#include "wlcrc/factory.hh"

namespace
{

using namespace wlcrc;
using pcm::State;

const pcm::DisturbanceModel nonConverging({1.0, 0.0, 1.0, 1.0});

/** One S4 write into an all-S1 64-cell line. */
pcm::TargetLine
oneS4Target()
{
    pcm::TargetLine target(64);
    target[10] = State::S4;
    return target;
}

TEST(VnrCap, NonConvergingWriteStopsAtTheCap)
{
    const pcm::WriteUnit unit(pcm::EnergyModel(), nonConverging);
    std::vector<State> stored(64, State::S1);
    Rng rng(1);
    const pcm::WriteStats st =
        unit.program(stored, oneS4Target(), rng, true);
    EXPECT_EQ(st.vnrCapped, 1u);
    EXPECT_EQ(st.vnrIterations, pcm::WriteUnit::maxVnrIterations);
    EXPECT_EQ(st.totalDisturbed(), 2u); // both neighbours, first pass
}

TEST(VnrCap, ConvergingWriteIsNotCapped)
{
    const pcm::WriteUnit unit{pcm::EnergyModel(),
                              pcm::DisturbanceModel()};
    std::vector<State> stored(256, State::S1);
    pcm::TargetLine target(256);
    for (unsigned i = 0; i < 256; i += 2)
        target[i] = State::S4;
    Rng rng(3);
    const pcm::WriteStats st = unit.program(stored, target, rng, true);
    EXPECT_EQ(st.vnrCapped, 0u);
    EXPECT_GT(st.vnrIterations, 0u);
    EXPECT_LT(st.vnrIterations, pcm::WriteUnit::maxVnrIterations);
}

TEST(VnrCap, ReferenceStopsAtTheSameCap)
{
    const pcm::WriteUnit unit(pcm::EnergyModel(), nonConverging);
    const std::vector<State> stored(64, State::S1);
    EXPECT_EQ(pcm::reference::diffProgram(unit, stored, oneS4Target(),
                                          7, true),
              "");
}

TEST(VnrCap, ReplayCountsCappedWrites)
{
    const pcm::EnergyModel energy;
    const pcm::WriteUnit unit(energy, nonConverging);
    const auto codec = core::makeCodec("Baseline", energy);
    trace::Replayer rep(*codec, unit, 7, true);
    for (uint64_t i = 0; i < 8; ++i) {
        trace::WriteTransaction txn;
        txn.lineAddr = i;
        txn.newData.setWord(0, 0x0123456789abcdefull * (i + 1));
        rep.step(txn);
    }
    const trace::ReplayResult &r = rep.result();
    EXPECT_GT(r.vnrCapped, 0u);
    EXPECT_LE(r.vnrCapped, r.writes);

    trace::ReplayResult merged = r;
    merged.merge(r);
    EXPECT_EQ(merged.vnrCapped, 2 * r.vnrCapped);
}

/** writeResultObject() text of an ok result with @p capped. */
std::string
resultText(uint64_t capped)
{
    runner::ExperimentResult r;
    r.ok = true;
    r.replay.writes = 4;
    r.replay.vnrIterations = 9;
    r.replay.vnrCapped = capped;
    std::ostringstream os;
    runner::writeResultObject(os, r);
    return os.str();
}

TEST(VnrCap, ReportCarriesTheCountOnlyWhenSet)
{
    const std::string clean = resultText(0);
    EXPECT_EQ(clean.find("vnr_capped"), std::string::npos) << clean;
    const runner::ExperimentResult back =
        runner::readResultObject(runner::parseJson(clean), {});
    EXPECT_EQ(back.replay.vnrCapped, 0u);

    const std::string capped = resultText(3);
    EXPECT_NE(capped.find("\"vnr_capped\":3"), std::string::npos)
        << capped;
    EXPECT_EQ(
        runner::readResultObject(runner::parseJson(capped), {})
            .replay.vnrCapped,
        3u);
}

} // namespace
