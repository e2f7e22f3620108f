/**
 * @file
 * Write-disturbance model for super-dense MLC PCM (paper Table II,
 * rates from Jiang et al., DSN'14, 20 nm node).
 *
 * Every programmed cell starts with a RESET pulse whose heat can
 * unintentionally lower the resistance of *idle* adjacent cells.
 * Disturbance is unidirectional: cells already at minimum resistance
 * (state S2 in the paper's energy ordering) are immune; idle cells in
 * S1 / S3 / S4 are disturbed with per-state probabilities (DER).
 *
 * sample() is the write path's sampler and runs without
 * data-dependent branches, in two passes over the candidate cells
 * (idle cells next to a programmed one). Pass 1 records each
 * candidate's draw count in ascending cell order: one per programmed
 * neighbour when its state's rate is live (not <= 0, so a NaN rate
 * still draws), else none. All draws then come from the rng in one
 * loop, and pass 2 decides each hit as an integer compare against a
 * per-state threshold (see drawThreshold()). The draw sequence, the
 * hits and the rng's final state are exactly those of the
 * cell-by-cell formulation in the test-only oracle
 * tests/support/pcm/program_reference.hh, which tests hold it to.
 */

#ifndef WLCRC_PCM_DISTURBANCE_HH
#define WLCRC_PCM_DISTURBANCE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "pcm/cell.hh"

namespace wlcrc::pcm
{

namespace detail
{

/**
 * Integer form of Rng::chance(p): nextDouble() < p holds exactly
 * when (next() >> 11) < ceil(p * 2^53), because nextDouble() is
 * (next() >> 11) * 2^-53 with no rounding and p * 2^53 is exact.
 * Rates <= 0 and NaN never hit (0); rates >= 1 always do (2^53).
 */
constexpr uint64_t
drawThreshold(double p)
{
    if (!(p > 0.0))
        return 0;
    if (p >= 1.0)
        return uint64_t{1} << 53;
    const double scaled = p * 0x1.0p53;
    const auto whole = static_cast<uint64_t>(scaled);
    return static_cast<double>(whole) < scaled ? whole + 1 : whole;
}

/** Per-state draw thresholds of a DER table. */
constexpr std::array<uint64_t, numStates>
drawThresholds(const std::array<double, numStates> &der)
{
    std::array<uint64_t, numStates> t{};
    for (unsigned s = 0; s < numStates; ++s)
        t[s] = drawThreshold(der[s]);
    return t;
}

/** Per-state liveness (1 iff !(rate <= 0): the state draws). */
constexpr std::array<uint8_t, numStates>
drawsPerExposure(const std::array<double, numStates> &der)
{
    std::array<uint8_t, numStates> d{};
    for (unsigned s = 0; s < numStates; ++s)
        d[s] = der[s] <= 0.0 ? 0 : 1;
    return d;
}

} // namespace detail

/** Per-state disturbance error rates when a neighbour is RESET. */
class DisturbanceModel
{
  public:
    /** Defaults from Table II (20 nm): S1 12.3%, S2 0%, S3 27.6%, S4 15.2%. */
    constexpr DisturbanceModel() = default;

    explicit constexpr
    DisturbanceModel(const std::array<double, numStates> &der)
        : der_(der)
    {}

    /** Disturbance probability of an idle cell in state @p s per
     *  adjacent RESET. */
    constexpr double der(State s) const { return der_[stateIndex(s)]; }

    /**
     * Hit threshold of state @p s: one draw x disturbs an idle cell
     * in @p s iff (x >> 11) < drawThreshold(s), which is exactly
     * Rng::chance(der(s)) (see detail::drawThreshold).
     */
    constexpr uint64_t
    drawThreshold(State s) const
    {
        return threshold_[stateIndex(s)];
    }

    /**
     * Sample the number of disturbed idle cells for one line write.
     *
     * @param cells    stored states after the write (@p n cells).
     * @param updated  updated.test(i) true iff cell i was programmed.
     * @param rng      randomness source.
     * @param disturbed  out (optional): per-cell disturbed flags.
     * @return number of disturbance errors in this write pass.
     *
     * Each programmed cell exposes its linear neighbours (i-1, i+1);
     * an idle neighbour flanked by two programmed cells gets two
     * independent chances to be disturbed, matching the physical
     * model of per-RESET heat pulses. Allocation-free and
     * branch-free per candidate (see the file comment); its scratch
     * is bounded by maxLineCells and lives on the stack.
     */
    unsigned sample(const State *cells, std::size_t n,
                    const CellMask &updated, Rng &rng,
                    CellMask *disturbed = nullptr) const;

    /** Convenience adapter for vector-based callers (tests). */
    unsigned sample(const std::vector<State> &cells,
                    const std::vector<bool> &updated, Rng &rng,
                    std::vector<bool> *disturbed = nullptr) const;

    /**
     * Expected number of disturbance errors for one write pass
     * (deterministic; used by tests and fast analytic sweeps).
     */
    double expected(const State *cells, std::size_t n,
                    const CellMask &updated) const;

    /** Convenience adapter for vector-based callers (tests). */
    double expected(const std::vector<State> &cells,
                    const std::vector<bool> &updated) const;

  private:
    std::array<double, numStates> der_{0.123, 0.0, 0.276, 0.152};
    std::array<uint64_t, numStates> threshold_ =
        detail::drawThresholds(der_);
    std::array<uint8_t, numStates> live_ =
        detail::drawsPerExposure(der_);
};

} // namespace wlcrc::pcm

#endif // WLCRC_PCM_DISTURBANCE_HH
