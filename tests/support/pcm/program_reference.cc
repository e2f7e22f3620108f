#include "program_reference.hh"

#include <bit>
#include <cassert>
#include <cstdio>
#include <cstring>

#include "common/simd.hh"

namespace wlcrc::pcm::reference
{

namespace
{

/** Number of programmed (RESETting) linear neighbours of cell i. */
unsigned
resetNeighbours(const CellMask &updated, std::size_t i)
{
    unsigned n = 0;
    if (i > 0 && updated.test(static_cast<unsigned>(i - 1)))
        ++n;
    if (i + 1 < updated.size() &&
        updated.test(static_cast<unsigned>(i + 1)))
        ++n;
    return n;
}

} // namespace

unsigned
sample(const DisturbanceModel &model, const State *cells, std::size_t n,
       const CellMask &updated, Rng &rng, CellMask *disturbed)
{
    assert(n == updated.size());
    if (disturbed)
        disturbed->reset(static_cast<unsigned>(n));
    unsigned errors = 0;
    // Only idle cells with at least one programmed neighbour can be
    // disturbed; compute that candidate set word-at-a-time instead
    // of scanning every cell. Candidates are visited in ascending
    // cell order, so the rng draw sequence matches a linear scan.
    const unsigned nw = updated.words();
    for (unsigned w = 0; w < nw; ++w) {
        const uint64_t u = updated.word(w);
        const uint64_t lo = w ? updated.word(w - 1) : 0;
        const uint64_t hi = w + 1 < nw ? updated.word(w + 1) : 0;
        uint64_t cand =
            ((u << 1) | (u >> 1) | (lo >> 63) | (hi << 63)) & ~u;
        if (static_cast<std::size_t>(w + 1) * 64 > n) {
            // Trim neighbour bits past the end of the line.
            cand &= ~uint64_t{0} >>
                    (static_cast<std::size_t>(w + 1) * 64 - n);
        }
        while (cand) {
            const unsigned i =
                w * 64 +
                static_cast<unsigned>(std::countr_zero(cand));
            cand &= cand - 1;
            const double p = model.der(cells[i]);
            if (p <= 0.0)
                continue;
            const unsigned exposures = resetNeighbours(updated, i);
            bool hit = false;
            for (unsigned e = 0; e < exposures; ++e)
                hit |= rng.chance(p);
            if (hit) {
                ++errors;
                if (disturbed)
                    disturbed->set(i);
            }
        }
    }
    return errors;
}

void
applyDifferential(std::vector<State> &stored, const TargetLine &target,
                  const EnergyModel &energy, WriteStats &st,
                  CellMask &updated)
{
    assert(stored.size() == target.size());
    const unsigned n = static_cast<unsigned>(stored.size());
    updated.reset(n);
    // Word-wise differential scan through the SIMD shim: one
    // cell-difference bitmask per line, then per-cell work only for
    // genuinely differing cells, in ascending cell order (the energy
    // accumulation order the golden results pin down).
    State *cur = stored.data();
    const State *tgt = target.states();
    simd::ops().byteDiffMask(reinterpret_cast<const uint8_t *>(cur),
                             reinterpret_cast<const uint8_t *>(tgt),
                             n, updated.rawWords());
    for (unsigned w = 0; w < updated.words(); ++w) {
        uint64_t diff = updated.word(w);
        while (diff) {
            const unsigned i =
                w * 64 +
                static_cast<unsigned>(std::countr_zero(diff));
            diff &= diff - 1;
            const double e = energy.programEnergy(tgt[i]);
            if (target.aux(i)) {
                st.auxEnergyPj += e;
                ++st.auxUpdated;
            } else {
                st.dataEnergyPj += e;
                ++st.dataUpdated;
            }
            cur[i] = tgt[i];
        }
    }
}

WriteStats
program(const EnergyModel &energy, const DisturbanceModel &disturb,
        std::vector<State> &stored, const TargetLine &target, Rng &rng,
        bool verify_n_restore, CellMask *updatedOut)
{
    WriteStats st;
    CellMask updated;
    applyDifferential(stored, target, energy, st, updated);
    if (updatedOut)
        *updatedOut = updated;

    // First-pass disturbance: this is what the paper's figures count.
    CellMask disturbed;
    unsigned errors = sample(disturb, stored.data(), stored.size(),
                             updated, rng, &disturbed);
    for (unsigned w = 0; w < disturbed.words(); ++w) {
        uint64_t bits = disturbed.word(w);
        while (bits) {
            const unsigned i =
                w * 64 +
                static_cast<unsigned>(std::countr_zero(bits));
            bits &= bits - 1;
            if (target.aux(i))
                ++st.auxDisturbed;
            else
                ++st.dataDisturbed;
        }
    }
    st.vnrIterations = errors ? 1 : 0;

    if (!verify_n_restore)
        return st;

    while (errors) {
        if (st.vnrIterations >= WriteUnit::maxVnrIterations) {
            st.vnrCapped = 1;
            break;
        }
        ++st.vnrIterations;
        const CellMask repairing = disturbed;
        errors = sample(disturb, stored.data(), stored.size(),
                        repairing, rng, &disturbed);
    }
    return st;
}

void
randomCase(Rng &rng, unsigned n, std::vector<State> &stored,
           TargetLine &target)
{
    stored.resize(n);
    target.reset(n);
    const double differ = rng.nextDouble();
    for (unsigned i = 0; i < n; ++i) {
        stored[i] = stateFromIndex(static_cast<unsigned>(rng.next()));
        target[i] = rng.chance(differ)
                        ? stateFromIndex(
                              static_cast<unsigned>(rng.next()))
                        : stored[i];
    }
    const uint64_t layout = rng.nextBelow(4);
    if (layout & 1)
        target.setAuxStart(static_cast<unsigned>(rng.nextBelow(n + 1)));
    if (layout & 2) {
        const double embedded = rng.nextDouble() * 0.5;
        for (unsigned i = 0; i < n; ++i)
            if (rng.chance(embedded))
                target.markAux(i);
    }
}

namespace
{

std::string
diffMasks(const CellMask &got, const CellMask &want, const char *what)
{
    if (got.size() != want.size())
        return std::string(what) + ": mask size " +
               std::to_string(got.size()) + " vs reference " +
               std::to_string(want.size());
    for (unsigned w = 0; w < want.words(); ++w)
        if (got.word(w) != want.word(w))
            return std::string(what) + ": mask word " +
                   std::to_string(w) + " differs from the reference";
    return "";
}

} // namespace

std::string
diffProgram(const WriteUnit &unit, const std::vector<State> &stored,
            const TargetLine &target, uint64_t seed,
            bool verify_n_restore)
{
    std::vector<State> gotCells = stored;
    std::vector<State> wantCells = stored;
    Rng gotRng(seed);
    Rng wantRng(seed);
    CellMask gotUpdated;
    CellMask wantUpdated;
    const WriteStats got = unit.program(gotCells, target, gotRng,
                                        verify_n_restore, &gotUpdated);
    const WriteStats want =
        program(unit.energyModel(), unit.disturbanceModel(), wantCells,
                target, wantRng, verify_n_restore, &wantUpdated);

    // Field by field: WriteStats has padding, which memcmp of the
    // whole struct would read.
    const auto same = [](const auto &a, const auto &b) {
        return std::memcmp(&a, &b, sizeof a) == 0;
    };
    if (!same(got.dataEnergyPj, want.dataEnergyPj) ||
        !same(got.auxEnergyPj, want.auxEnergyPj) ||
        !same(got.dataUpdated, want.dataUpdated) ||
        !same(got.auxUpdated, want.auxUpdated) ||
        !same(got.dataDisturbed, want.dataDisturbed) ||
        !same(got.auxDisturbed, want.auxDisturbed) ||
        !same(got.vnrIterations, want.vnrIterations) ||
        !same(got.vnrCapped, want.vnrCapped)) {
        char buf[320];
        std::snprintf(
            buf, sizeof buf,
            "WriteStats: energy %a/%a updated %u/%u disturbed %u/%u "
            "vnr %u capped %u; reference %a/%a %u/%u %u/%u vnr %u "
            "capped %u",
            got.dataEnergyPj, got.auxEnergyPj, got.dataUpdated,
            got.auxUpdated, got.dataDisturbed, got.auxDisturbed,
            got.vnrIterations, got.vnrCapped, want.dataEnergyPj,
            want.auxEnergyPj, want.dataUpdated, want.auxUpdated,
            want.dataDisturbed, want.auxDisturbed, want.vnrIterations,
            want.vnrCapped);
        return buf;
    }
    if (gotCells != wantCells)
        return "stored cells differ from the reference";
    if (std::string d = diffMasks(gotUpdated, wantUpdated, "updated");
        !d.empty())
        return d;
    if (gotRng.next() != wantRng.next())
        return "rng state differs from the reference";
    return "";
}

std::string
diffSample(const DisturbanceModel &model,
           const std::vector<State> &cells, const CellMask &updated,
           uint64_t seed)
{
    Rng gotRng(seed);
    Rng wantRng(seed);
    CellMask gotMask;
    CellMask wantMask;
    const unsigned got = model.sample(cells.data(), cells.size(),
                                      updated, gotRng, &gotMask);
    const unsigned want = sample(model, cells.data(), cells.size(),
                                 updated, wantRng, &wantMask);
    if (got != want)
        return "sample: " + std::to_string(got) +
               " errors, reference " + std::to_string(want);
    if (std::string d = diffMasks(gotMask, wantMask, "disturbed");
        !d.empty())
        return d;
    if (gotRng.next() != wantRng.next())
        return "sample: rng state differs from the reference";
    return "";
}

} // namespace wlcrc::pcm::reference
