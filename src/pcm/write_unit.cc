#include "write_unit.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>

#include <cassert>

#include "common/simd.hh"

namespace wlcrc::pcm
{

WriteStats &
WriteStats::operator+=(const WriteStats &o)
{
    dataEnergyPj += o.dataEnergyPj;
    auxEnergyPj += o.auxEnergyPj;
    dataUpdated += o.dataUpdated;
    auxUpdated += o.auxUpdated;
    dataDisturbed += o.dataDisturbed;
    auxDisturbed += o.auxDisturbed;
    vnrIterations += o.vnrIterations;
    vnrCapped += o.vnrCapped;
    return *this;
}

namespace
{

/** One row of cells per state: the right-hand side of the
 *  byteDiffMask calls that split a target line into state planes. */
constexpr auto statePlanes = [] {
    std::array<std::array<uint8_t, maxLineCells>, numStates> rows{};
    for (unsigned s = 0; s < numStates; ++s)
        rows[s].fill(static_cast<uint8_t>(s));
    return rows;
}();

/** True iff per-state energy sums are exact (see write_unit.hh). */
bool
integerEnergies(const std::array<double, numStates> &pj)
{
    for (const double e : pj)
        if (!(std::fabs(e) * maxLineCells < 0x1.0p53 &&
              e == std::floor(e)))
            return false;
    return true;
}

} // namespace

WriteUnit::WriteUnit(const EnergyModel &energy,
                     const DisturbanceModel &disturb)
    : energy_(energy), disturb_(disturb)
{
    for (unsigned s = 0; s < numStates; ++s)
        programPj_[s] = energy_.programEnergy(stateFromIndex(s));
    exactEnergy_ = integerEnergies(programPj_);
}

void
WriteUnit::applyDifferential(std::vector<State> &stored,
                             const TargetLine &target, WriteStats &st,
                             CellMask &updated) const
{
    assert(stored.size() == target.size());
    const unsigned n = static_cast<unsigned>(stored.size());
    auto *cur = reinterpret_cast<uint8_t *>(stored.data());
    const auto *tgt = reinterpret_cast<const uint8_t *>(target.states());
    const simd::Ops &ops = simd::ops();
    updated.reset(n);
    ops.byteDiffMask(cur, tgt, n, updated.rawWords());

    const unsigned nw = updated.words();
    std::array<uint64_t, maxLineCells / 64> aux;
    for (unsigned w = 0; w < nw; ++w) {
        aux[w] = target.auxWord(w);
        const uint64_t u = updated.word(w);
        st.auxUpdated += std::popcount(u & aux[w]);
        st.dataUpdated += std::popcount(u & ~aux[w]);
    }

    if (exactEnergy_) {
        // count(state) * energy(state), per side. S1 takes what the
        // other three planes leave.
        std::array<unsigned, numStates> dataCount{};
        std::array<unsigned, numStates> auxCount{};
        dataCount[0] = st.dataUpdated;
        auxCount[0] = st.auxUpdated;
        std::array<uint64_t, maxLineCells / 64> other;
        for (unsigned s = 1; s < numStates; ++s) {
            ops.byteDiffMask(tgt, statePlanes[s].data(), n,
                             other.data());
            for (unsigned w = 0; w < nw; ++w) {
                const uint64_t hit = updated.word(w) & ~other[w];
                auxCount[s] += std::popcount(hit & aux[w]);
                dataCount[s] += std::popcount(hit & ~aux[w]);
            }
            dataCount[0] -= dataCount[s];
            auxCount[0] -= auxCount[s];
        }
        for (unsigned s = 0; s < numStates; ++s) {
            st.dataEnergyPj += dataCount[s] * programPj_[s];
            st.auxEnergyPj += auxCount[s] * programPj_[s];
        }
    } else {
        // Ascending per-cell sum, as the energies may round. Each
        // cell adds its energy to its own side and +0.0 (a no-op on
        // any sum, even an infinite one) to the other.
        for (unsigned w = 0; w < nw; ++w) {
            uint64_t diff = updated.word(w);
            while (diff) {
                const unsigned b =
                    static_cast<unsigned>(std::countr_zero(diff));
                diff &= diff - 1;
                const uint64_t e = std::bit_cast<uint64_t>(
                    programPj_[tgt[w * 64 + b] & 3]);
                const uint64_t isAux = 0 - ((aux[w] >> b) & 1);
                st.auxEnergyPj += std::bit_cast<double>(e & isAux);
                st.dataEnergyPj += std::bit_cast<double>(e & ~isAux);
            }
        }
    }
    // Cells that do not differ are already equal.
    std::copy_n(tgt, n, cur);
}

WriteStats
WriteUnit::program(std::vector<State> &stored, const TargetLine &target,
                   Rng &rng, bool verify_n_restore,
                   CellMask *updatedOut) const
{
    WriteStats st;
    CellMask scratch;
    CellMask &updated = updatedOut ? *updatedOut : scratch;
    applyDifferential(stored, target, st, updated);

    // First-pass disturbance: this is what the paper's figures count.
    CellMask disturbed;
    unsigned errors = disturb_.sample(stored.data(), stored.size(),
                                      updated, rng, &disturbed);
    for (unsigned w = 0; w < disturbed.words(); ++w) {
        const uint64_t d = disturbed.word(w);
        const uint64_t aux = target.auxWord(w);
        st.auxDisturbed += std::popcount(d & aux);
        st.dataDisturbed += std::popcount(d & ~aux);
    }
    st.vnrIterations = errors ? 1 : 0;

    if (!verify_n_restore) {
        // Without VnR the disturbed (idle) cells keep their logical
        // value in this behavioural model: the subsequent
        // read-after-write detects and restores them out of band.
        return st;
    }

    // Iterative Verify-n-Restore: re-program disturbed cells; the
    // repair RESETs may disturb further idle cells. The paper reports
    // this converging in 3-5 iterations; a table that never converges
    // stops at the cap.
    while (errors) {
        if (st.vnrIterations >= maxVnrIterations) {
            st.vnrCapped = 1;
            break;
        }
        ++st.vnrIterations;
        const CellMask repairing = disturbed;
        errors = disturb_.sample(stored.data(), stored.size(),
                                 repairing, rng, &disturbed);
    }
    return st;
}

WriteStats
WriteUnit::programExpected(std::vector<State> &stored,
                           const TargetLine &target) const
{
    WriteStats st;
    CellMask updated;
    applyDifferential(stored, target, st, updated);
    // Expectation is reported as a rounded count on the (unsplit)
    // data side; callers needing the exact value use the model
    // directly. Keep full precision available via the return value's
    // dataDisturbed only when integral; tests use
    // DisturbanceModel::expected() for exact checks.
    const double expected =
        disturb_.expected(stored.data(), stored.size(), updated);
    st.dataDisturbed = static_cast<unsigned>(expected + 0.5);
    return st;
}

} // namespace wlcrc::pcm
