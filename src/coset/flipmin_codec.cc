#include "flipmin_codec.hh"

#include <cassert>
#include <limits>

#include "coset/aux_coding.hh"
#include "ecc/hamming.hh"

namespace wlcrc::coset
{

using pcm::State;

FlipMinCodec::FlipMinCodec(const pcm::EnergyModel &energy,
                           uint64_t seed)
    : LineCodec(energy), masks_(ecc::flipMinMasks(numCandidates, seed))
{
    for (unsigned i = 0; i < lineSymbols; ++i)
        for (unsigned c = 0; c < numCandidates; ++c)
            maskSymbols_[i * numCandidates + c] =
                static_cast<uint8_t>(masks_[c].symbol(i));
}

void
FlipMinCodec::encodeInto(const Line512 &data,
                         std::span<const State> stored,
                         EncodeScratch &scratch,
                         pcm::TargetLine &target) const
{
    assert(stored.size() == cellCount());
    (void)scratch;
    const Mapping &map = defaultMapping();
    const simd::Ops &k = simd::ops();

    // Candidate index cells under the default bit packing: the low
    // two index bits share the first aux cell, the high two the
    // second (same symbols packBitsToStates produces).
    auto aux_state = [&map](unsigned index_bits) {
        return map.encode(index_bits & 3);
    };

    // rows[s * 4 + x]: cost of writing symbol x over state s.
    double rows[pcm::numStates * 4];
    for (unsigned s = 0; s < pcm::numStates; ++s) {
        const double *row = costRow(pcm::stateFromIndex(s));
        for (unsigned x = 0; x < 4; ++x)
            rows[s * 4 + x] = row[pcm::stateIndex(map.encode(x))];
    }
    uint64_t words[lineWords];
    for (unsigned w = 0; w < lineWords; ++w)
        words[w] = data.word(w);
    double cost[numCandidates] = {};
    k.scoreXorCandidates(rows,
                         reinterpret_cast<const uint8_t *>(stored.data()),
                         words, maskSymbols_.data(), lineSymbols, cost);

    double best_cost = std::numeric_limits<double>::infinity();
    unsigned best = 0;
    for (unsigned c = 0; c < numCandidates; ++c) {
        // Include the cost of updating the two index cells.
        cost[c] += cellCost(stored[lineSymbols], aux_state(c));
        cost[c] += cellCost(stored[lineSymbols + 1], aux_state(c >> 2));
        if (cost[c] < best_cost) {
            best_cost = cost[c];
            best = c;
        }
    }

    target.reset(cellCount());
    target.setAuxStart(lineSymbols);
    const Line512 cand = data ^ masks_[best];
    uint8_t *tgt = reinterpret_cast<uint8_t *>(target.states());
    for (unsigned w = 0; w < lineWords; ++w)
        k.mapSymbols(cand.word(w), map.stateTable(), 0, 31,
                     tgt + w * 32);
    target[lineSymbols] = aux_state(best);
    target[lineSymbols + 1] = aux_state(best >> 2);
}

Line512
FlipMinCodec::decode(const std::vector<State> &stored) const
{
    assert(stored.size() == cellCount());
    const Mapping &map = defaultMapping();
    std::vector<State> aux(stored.begin() + lineSymbols, stored.end());
    const std::vector<uint8_t> bits = unpackBitsFromStates(aux, 4);
    const unsigned c = bits[0] | (bits[1] << 1) | (bits[2] << 2) |
                       (bits[3] << 3);
    Line512 data;
    for (unsigned s = 0; s < lineSymbols; ++s)
        data.setSymbol(s, map.decode(stored[s]));
    return data ^ masks_[c];
}

} // namespace wlcrc::coset
