/**
 * @file
 * lifetime_study: endurance-centric exploration.
 *
 *   1. sweeps the multi-objective threshold T (Section VIII-D) to
 *      show the energy/endurance trade-off;
 *   2. demonstrates the Verify-n-Restore loop converging on a
 *      disturbance-heavy write pattern.
 *
 *   ./build/examples/lifetime_study [workload]
 */

#include <cstdio>

#include "pcm/write_unit.hh"
#include "trace/replay.hh"
#include "trace/workload.hh"
#include "wlcrc/wlcrc_codec.hh"

int
main(int argc, char **argv)
{
    using namespace wlcrc;

    const std::string workload = argc > 1 ? argv[1] : "milc";
    const pcm::EnergyModel energy;
    const pcm::WriteUnit unit{energy, pcm::DisturbanceModel()};

    try {
        const auto &profile =
            trace::WorkloadProfile::byName(workload);

        // 1. Multi-objective threshold sweep.
        std::printf("=== multi-objective sweep (%s) ===\n",
                    workload.c_str());
        std::printf("%-10s %12s %14s\n", "T", "energy(pJ)",
                    "updated cells");
        for (const double t : {0.0, 0.005, 0.01, 0.02, 0.05}) {
            const core::WlcrcCodec mo(energy, 16, t);
            trace::Replayer rep(mo, unit);
            trace::TraceSynthesizer synth(profile, 5);
            rep.run(synth, 5000);
            std::printf("%-10.3f %12.1f %14.2f\n", t,
                        rep.result().energyPj.mean(),
                        rep.result().updatedCells.mean());
        }

        // 2. Verify-n-Restore on a worst-case pattern.
        std::printf("\n=== Verify-n-Restore convergence ===\n");
        std::vector<pcm::State> cells(256, pcm::State::S1);
        pcm::TargetLine target(256);
        for (unsigned i = 0; i < 256; ++i)
            target[i] = (i % 2) ? pcm::State::S4 : pcm::State::S1;
        Rng rng(3);
        const auto st = unit.program(cells, target, rng, true);
        std::printf("alternating S1/S4 line: %u first-pass "
                    "disturbances, VnR converged in %u "
                    "iteration(s)\n",
                    st.totalDisturbed(), st.vnrIterations);
    } catch (const std::exception &err) {
        std::fprintf(stderr, "error: %s\n", err.what());
        return 1;
    }
    return 0;
}
