#include "din_codec.hh"

#include <algorithm>
#include <cassert>

#include "common/simd.hh"

namespace wlcrc::coset
{

using pcm::State;

namespace
{

// The eight cheapest 4-bit codewords (two cells) that never place a
// cell in the top-energy state S4 (= symbol 01 under the default
// mapping), ordered by write energy. Listed as (high symbol, low
// symbol) packed into 4 bits.
constexpr unsigned codewords[8] = {
    (0 << 2) | 0, // 00,00 -> S1,S1
    (0 << 2) | 2, // 00,10 -> S1,S2
    (2 << 2) | 0, // 10,00 -> S2,S1
    (2 << 2) | 2, // 10,10 -> S2,S2
    (0 << 2) | 3, // 00,11 -> S1,S3
    (3 << 2) | 0, // 11,00 -> S3,S1
    (2 << 2) | 3, // 10,11 -> S2,S3
    (3 << 2) | 2, // 11,10 -> S3,S2
};

constexpr unsigned invalidGroup = 0xff;

/** codeword -> 3-bit group lookup, 0xff for non-codewords. */
constexpr std::array<unsigned, 16>
buildInverse()
{
    std::array<unsigned, 16> inv{};
    for (auto &v : inv)
        v = invalidGroup;
    for (unsigned g = 0; g < 8; ++g)
        inv[codewords[g]] = g;
    return inv;
}

constexpr std::array<unsigned, 16> inverse = buildInverse();

/** Two 3-bit groups (6 stream bits) -> their two codewords (8 bits). */
constexpr std::array<uint8_t, 64>
buildPairExpansion()
{
    std::array<uint8_t, 64> t{};
    for (unsigned v = 0; v < 64; ++v)
        t[v] = static_cast<uint8_t>(codewords[v & 7] |
                                    (codewords[v >> 3] << 4));
    return t;
}

constexpr std::array<uint8_t, 64> pairExpansion = buildPairExpansion();

} // namespace

unsigned
DinCodec::expand3to4(unsigned v)
{
    assert(v < 8);
    return codewords[v];
}

unsigned
DinCodec::shrink4to3(unsigned cw)
{
    assert(cw < 16);
    const unsigned g = inverse[cw];
    // Non-codewords can only appear through uncorrected disturbance;
    // degrade to group 0 rather than crashing the pipeline.
    return g == invalidGroup ? 0 : g;
}

DinCodec::DinCodec(const pcm::EnergyModel &energy)
    : LineCodec(energy), bch_(10, 2, expandedBits)
{
    assert(bch_.parityBits() == bchParityBits);
    assert(expandedBits + bchParityBits == lineBits);
}

void
DinCodec::encodeInto(const Line512 &data,
                     std::span<const State> stored,
                     EncodeScratch &scratch,
                     pcm::TargetLine &target) const
{
    assert(stored.size() == cellCount());
    (void)stored;
    (void)scratch;
    const Mapping &map = defaultMapping();
    const simd::Ops &k = simd::ops();
    target.reset(cellCount());
    target.setAuxStart(lineSymbols);
    uint8_t *tgt = reinterpret_cast<uint8_t *>(target.states());
    auto place = [&](const Line512 &line) {
        for (unsigned w = 0; w < lineWords; ++w)
            k.mapSymbols(line.word(w), map.stateTable(), 0, 31,
                         tgt + w * 32);
    };

    const auto stream = compressor_.compress(data);
    if (!stream || stream->size() > maxCompressedBits) {
        // Raw format: flag = S2 (second-lowest energy state).
        place(data);
        target[lineSymbols] = State::S2;
        return;
    }

    // Expand 3 -> 4: each output word takes 48 stream bits, six at
    // a time (two groups) into one byte of two codewords. The stream
    // is zero past its end, so groups past the 123rd expand to zero.
    const Line512 in = stream->toLine();
    std::array<uint64_t, lineWords> out{};
    for (unsigned w = 0; w < lineWords; ++w) {
        const unsigned pos = w * 48;
        const unsigned off = pos % 64;
        uint64_t window = in.word(pos / 64) >> off;
        if (off > 16)
            window |= in.word(pos / 64 + 1) << (64 - off);
        for (unsigned b = 0; b < 8; ++b)
            out[w] |= uint64_t{pairExpansion[(window >> (6 * b)) & 63]}
                      << (8 * b);
    }
    // Bits 492..511 are still zero: the BCH parity goes there.
    static_assert(expandedBits == 7 * 64 + 44 &&
                  expandedBits + bchParityBits == lineBits);
    out[7] |= uint64_t{bch_.parity(out.data())} << 44;
    const Line512 encoded(out);
    place(encoded);
    target[lineSymbols] = State::S1; // flag: encoded
}

Line512
DinCodec::decode(const std::vector<State> &stored) const
{
    assert(stored.size() == cellCount());
    const Mapping &map = defaultMapping();
    Line512 raw;
    for (unsigned s = 0; s < lineSymbols; ++s)
        raw.setSymbol(s, map.decode(stored[s]));

    if (stored[lineSymbols] != State::S1)
        return raw; // uncompressed format

    std::vector<uint8_t> codeword(lineBits);
    for (unsigned i = 0; i < lineBits; ++i)
        codeword[i] = static_cast<uint8_t>(raw.bit(i));
    bch_.decode(codeword); // corrects up to 2 disturbance errors

    std::vector<uint8_t> bits(maxCompressedBits, 0);
    for (unsigned g = 0; g < dataGroups; ++g) {
        unsigned cw = 0;
        for (unsigned b = 0; b < 4; ++b)
            cw |= codeword[g * 4 + b] << b;
        const unsigned v = shrink4to3(cw);
        bits[g * 3] = v & 1;
        bits[g * 3 + 1] = (v >> 1) & 1;
        bits[g * 3 + 2] = (v >> 2) & 1;
    }
    compress::BitBuffer stream;
    for (unsigned i = 0; i < maxCompressedBits; ++i)
        stream.append(bits[i], 1);
    return compressor_.decompress(stream);
}

} // namespace wlcrc::coset
