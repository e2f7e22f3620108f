#include "coset/encode_reference.hh"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "coset/mapping.hh"
#include "ecc/hamming.hh"

namespace wlcrc::coset::reference
{

using pcm::State;

void
bchEncode(const ecc::Bch &bch, const uint8_t *data, uint8_t *codeword)
{
    const unsigned parity = bch.parityBits();
    const unsigned dataBits = bch.dataBits();
    const std::vector<uint8_t> &gen = bch.generator();
    assert(dataBits + parity <= 1023);
    uint8_t shifted[1023];
    std::fill_n(shifted, parity, uint8_t{0});
    std::copy(data, data + dataBits, shifted + parity);
    for (size_t i = parity + dataBits; i-- > parity;) {
        if (!shifted[i])
            continue;
        for (size_t j = 0; j < gen.size(); ++j)
            shifted[i - parity + j] ^= gen[j];
    }
    std::copy(data, data + dataBits, codeword);
    std::copy(shifted, shifted + parity, codeword + dataBits);
}

FlipMin::FlipMin(const pcm::EnergyModel &energy, uint64_t seed)
    : LineCodec(energy), codec_(energy, seed),
      masks_(ecc::flipMinMasks(FlipMinCodec::numCandidates, seed))
{
}

void
FlipMin::encodeInto(const Line512 &data, std::span<const State> stored,
                    EncodeScratch &scratch,
                    pcm::TargetLine &target) const
{
    assert(stored.size() == cellCount());
    (void)scratch;
    const Mapping &map = defaultMapping();

    auto aux_state = [&map](unsigned index_bits) {
        return map.encode(index_bits & 3);
    };

    double best_cost = std::numeric_limits<double>::infinity();
    unsigned best = 0;
    for (unsigned c = 0; c < FlipMinCodec::numCandidates; ++c) {
        const Line512 cand = data ^ masks_[c];
        double cost = 0.0;
        for (unsigned w = 0; w < lineWords; ++w) {
            uint64_t word = cand.word(w);
            for (unsigned k = 0; k < 32; ++k) {
                const State t = map.encode(
                    static_cast<unsigned>(word & 3));
                cost += costRow(stored[w * 32 + k])
                            [pcm::stateIndex(t)];
                word >>= 2;
            }
        }
        cost += cellCost(stored[lineSymbols], aux_state(c));
        cost += cellCost(stored[lineSymbols + 1], aux_state(c >> 2));
        if (cost < best_cost) {
            best_cost = cost;
            best = c;
        }
    }

    target.reset(cellCount());
    target.setAuxStart(lineSymbols);
    const Line512 cand = data ^ masks_[best];
    for (unsigned s = 0; s < lineSymbols; ++s)
        target[s] = map.encode(cand.symbol(s));
    target[lineSymbols] = aux_state(best);
    target[lineSymbols + 1] = aux_state(best >> 2);
}

Line512
FlipMin::decode(const std::vector<State> &stored) const
{
    return codec_.decode(stored);
}

Din::Din(const pcm::EnergyModel &energy)
    : LineCodec(energy), codec_(energy),
      bch_(10, 2, DinCodec::expandedBits)
{
}

void
Din::encodeInto(const Line512 &data, std::span<const State> stored,
                EncodeScratch &scratch, pcm::TargetLine &target) const
{
    assert(stored.size() == cellCount());
    (void)stored;
    (void)scratch;
    const Mapping &map = defaultMapping();
    target.reset(cellCount());
    target.setAuxStart(lineSymbols);

    const auto stream = compressor_.compress(data);
    if (!stream || stream->size() > DinCodec::maxCompressedBits) {
        for (unsigned s = 0; s < lineSymbols; ++s)
            target[s] = map.encode(data.symbol(s));
        target[lineSymbols] = State::S2;
        return;
    }

    uint8_t bits[DinCodec::maxCompressedBits] = {};
    for (unsigned i = 0; i < stream->size(); ++i)
        bits[i] = static_cast<uint8_t>(stream->read(i, 1));

    uint8_t expanded[DinCodec::expandedBits];
    for (unsigned g = 0; g < DinCodec::dataGroups; ++g) {
        const unsigned v = bits[g * 3] | (bits[g * 3 + 1] << 1) |
                           (bits[g * 3 + 2] << 2);
        const unsigned cw = DinCodec::expand3to4(v);
        for (unsigned b = 0; b < 4; ++b)
            expanded[g * 4 + b] = (cw >> b) & 1;
    }
    uint8_t codeword[lineBits];
    bchEncode(bch_, expanded, codeword);

    Line512 encoded;
    for (unsigned i = 0; i < lineBits; ++i)
        encoded.setBit(i, codeword[i]);
    for (unsigned s = 0; s < lineSymbols; ++s)
        target[s] = map.encode(encoded.symbol(s));
    target[lineSymbols] = State::S1;
}

Line512
Din::decode(const std::vector<State> &stored) const
{
    return codec_.decode(stored);
}

CodecPtr
makeReference(const std::string &scheme, const pcm::EnergyModel &energy)
{
    if (scheme == "FlipMin")
        return std::make_unique<FlipMin>(energy);
    if (scheme == "DIN")
        return std::make_unique<Din>(energy);
    throw std::invalid_argument("no encode reference for scheme '" +
                                scheme + "'");
}

} // namespace wlcrc::coset::reference
