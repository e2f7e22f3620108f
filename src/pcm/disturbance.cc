#include "disturbance.hh"

#include <array>
#include <bit>
#include <cstddef>

#include <cassert>

namespace wlcrc::pcm
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

CellMask
maskFromVector(const std::vector<bool> &v)
{
    assert(v.size() <= maxLineCells);
    CellMask m;
    m.reset(static_cast<unsigned>(v.size()));
    for (std::size_t i = 0; i < v.size(); ++i)
        if (v[i])
            m.set(static_cast<unsigned>(i));
    return m;
}

} // namespace

unsigned
DisturbanceModel::sample(const State *cells, std::size_t n,
                         const CellMask &updated, Rng &rng,
                         CellMask *disturbed) const
{
    assert(n == updated.size());
    assert(n <= maxLineCells);
    CellMask unused;
    CellMask &out = disturbed ? *disturbed : unused;
    out.reset(static_cast<unsigned>(n));

    // Pass 1: only idle cells with at least one programmed neighbour
    // can be disturbed. Build that candidate set word-at-a-time and
    // record, in ascending cell order, each candidate's draw count:
    // one per programmed neighbour if its state's rate is live.
    // Every draw pairs a candidate with a distinct programmed
    // neighbour, so the total is at most min(2 idle, 2 programmed)
    // <= n draws.
    std::array<uint16_t, maxLineCells> candCell;
    std::array<uint8_t, maxLineCells> candDraws;
    unsigned ncand = 0;
    unsigned ndraws = 0;
    const unsigned nw = updated.words();
    for (unsigned w = 0; w < nw; ++w) {
        const uint64_t u = updated.word(w);
        const uint64_t lo = w ? updated.word(w - 1) : 0;
        const uint64_t hi = w + 1 < nw ? updated.word(w + 1) : 0;
        const uint64_t left = (u << 1) | (lo >> 63);
        const uint64_t right = (u >> 1) | (hi << 63);
        uint64_t cand = (left | right) & ~u;
        if (static_cast<std::size_t>(w + 1) * 64 > n) {
            // Trim neighbour bits past the end of the line.
            cand &= ~uint64_t{0} >>
                    (static_cast<std::size_t>(w + 1) * 64 - n);
        }
        while (cand) {
            const unsigned b =
                static_cast<unsigned>(std::countr_zero(cand));
            cand &= cand - 1;
            const unsigned i = w * 64 + b;
            const unsigned k =
                live_[stateIndex(cells[i])] *
                static_cast<unsigned>(((left >> b) & 1) +
                                      ((right >> b) & 1));
            candCell[ncand] = static_cast<uint16_t>(i);
            candDraws[ncand] = static_cast<uint8_t>(k);
            ++ncand;
            ndraws += k;
        }
    }

    // All draws in one loop, in the order the candidates consume
    // them. Two zero pads: pass 2 reads a candidate's second slot
    // whatever its draw count and masks it out.
    std::array<uint64_t, maxLineCells + 2> draws;
    for (unsigned j = 0; j < ndraws; ++j)
        draws[j] = rng.next() >> 11;
    draws[ndraws] = 0;
    draws[ndraws + 1] = 0;

    // Pass 2: a candidate is hit iff any of its draws falls under
    // its state's threshold. A candidate with no draws has a dead
    // rate, hence threshold 0, so its first compare is false.
    uint64_t *bits = out.rawWords();
    unsigned errors = 0;
    unsigned j = 0;
    for (unsigned c = 0; c < ncand; ++c) {
        const unsigned i = candCell[c];
        const unsigned k = candDraws[c];
        const uint64_t t = threshold_[stateIndex(cells[i])];
        const unsigned hit =
            static_cast<unsigned>(draws[j] < t) |
            ((k >> 1) & static_cast<unsigned>(draws[j + 1] < t));
        j += k;
        bits[i >> 6] |= uint64_t{hit} << (i & 63);
        errors += hit;
    }
    return errors;
}

unsigned
DisturbanceModel::sample(const std::vector<State> &cells,
                         const std::vector<bool> &updated, Rng &rng,
                         std::vector<bool> *disturbed) const
{
    assert(cells.size() == updated.size());
    const CellMask mask = maskFromVector(updated);
    CellMask out;
    const unsigned errors =
        sample(cells.data(), cells.size(), mask, rng,
               disturbed ? &out : nullptr);
    if (disturbed) {
        disturbed->assign(cells.size(), false);
        for (std::size_t i = 0; i < cells.size(); ++i)
            if (out.test(static_cast<unsigned>(i)))
                (*disturbed)[i] = true;
    }
    return errors;
}

double
DisturbanceModel::expected(const State *cells, std::size_t n,
                           const CellMask &updated) const
{
    assert(n == updated.size());
    double expected = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        if (updated.test(static_cast<unsigned>(i)))
            continue;
        const double p = der_[stateIndex(cells[i])];
        if (p <= 0.0)
            continue;
        const unsigned exposures = resetNeighbours(updated, i);
        // P(at least one of `exposures` independent pulses disturbs).
        double survive = 1.0;
        for (unsigned e = 0; e < exposures; ++e)
            survive *= 1.0 - p;
        expected += 1.0 - survive;
    }
    return expected;
}

double
DisturbanceModel::expected(const std::vector<State> &cells,
                           const std::vector<bool> &updated) const
{
    assert(cells.size() == updated.size());
    return expected(cells.data(), cells.size(),
                    maskFromVector(updated));
}

} // namespace wlcrc::pcm
