#include "coset/encode_reference.hh"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "compress/wlc.hh"
#include "coset/mapping.hh"
#include "ecc/hamming.hh"
#include "pcm/disturbance.hh"

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

namespace
{

/** WlcrcCodec's aux-cell mappings: the cell holding the group bit,
 *  and a cell holding two selector bits. */
const Mapping &
auxGroupMapping()
{
    static const Mapping m({State::S1, State::S2, State::S3,
                            State::S4},
                           "AuxG");
    return m;
}

const Mapping &
auxPairMapping()
{
    static const Mapping m({State::S1, State::S3, State::S4,
                            State::S2},
                           "AuxP");
    return m;
}

} // namespace

Wlcrc::Wlcrc(const pcm::EnergyModel &energy, unsigned granularity_bits,
             const std::array<double, pcm::numStates> &state_penalty_pj)
    : LineCodec(energy),
      codec_(energy, granularity_bits, 0.0, state_penalty_pj),
      layout_(core::WordLayout::restricted(granularity_bits))
{
    for (unsigned s = 0; s < pcm::numStates; ++s) {
        for (unsigned t = 0; t < pcm::numStates; ++t) {
            select_[s][t] =
                s == t ? 0.0
                       : energy.writeEnergy(pcm::stateFromIndex(s),
                                            pcm::stateFromIndex(t)) +
                             state_penalty_pj[t];
        }
    }
}

void
Wlcrc::encodeWord(unsigned w, uint64_t word, const State *stored,
                  pcm::TargetLine &target) const
{
    const core::WordLayout &layout = layout_;
    const unsigned cell0 = w * 32;
    const unsigned nblocks = static_cast<unsigned>(layout.blocks.size());
    const Mapping *candMaps[3] = {&tableICandidate(1),
                                  &tableICandidate(2),
                                  &tableICandidate(3)};
    auto selectRow = [this](State s) {
        return select_[pcm::stateIndex(s)].data();
    };

    // Per-block cost of each candidate over the fully-known cells.
    double costE[8 * 4] = {};
    for (unsigned b = 0; b < nblocks; ++b) {
        const core::BlockLayout &blk = layout.blocks[b];
        for (unsigned c = blk.loCostCell; c <= blk.hiCostCell; ++c) {
            const unsigned sym =
                static_cast<unsigned>((word >> (c * 2)) & 3);
            const double *row = selectRow(stored[cell0 + c]);
            for (unsigned m = 0; m < 3; ++m) {
                const State t = candMaps[m]->encode(sym);
                costE[b * 4 + m] += row[pcm::stateIndex(t)];
            }
        }
    }

    // Which bit each aux-only cell holds: -1 = the group bit,
    // -2 = unused, else the block whose selector bit it is.
    auto owner = [&](unsigned pos) -> int {
        if (pos == layout.groupBitPos)
            return -1;
        for (unsigned b = 0; b < nblocks; ++b)
            if (layout.blockBitPos[b] == pos)
                return static_cast<int>(b);
        return -2;
    };

    double group_cost[2] = {};
    uint8_t pick[2][8] = {};
    for (unsigned g = 0; g < 2; ++g) {
        const unsigned alt = g + 1;
        double total{};

        // Pass 1: blocks whose selector bit sits in an aux-only cell.
        for (const unsigned cell : layout.auxOnlyCells) {
            const Mapping &am = cell == layout.groupBitPos / 2
                                    ? auxGroupMapping()
                                    : auxPairMapping();
            const double *arow = selectRow(stored[cell0 + cell]);
            const int hi = owner(cell * 2 + 1);
            const int lo = owner(cell * 2);
            const uint8_t *atab = am.stateTable();
            const unsigned hb_fix = hi == -1 ? g : 0;
            const unsigned lb_fix = lo == -1 ? g : 0;
            if (hi >= 0 && lo >= 0) {
                const unsigned hu = static_cast<unsigned>(hi);
                const unsigned lu = static_cast<unsigned>(lo);
                const double chi0 = costE[4 * hu];
                const double chiA = costE[4 * hu + alt];
                const double clo0 = costE[4 * lu];
                const double cloA = costE[4 * lu + alt];
                const double c00 = arow[atab[0]] + chi0 + clo0;
                const double c01 = arow[atab[1]] + chi0 + cloA;
                const double c10 = arow[atab[2]] + chiA + clo0;
                const double c11 = arow[atab[3]] + chiA + cloA;
                double bv = c00;
                unsigned bi = 0;
                bi = c01 < bv ? 1 : bi;
                bv = std::min(c01, bv);
                bi = c10 < bv ? 2 : bi;
                bv = std::min(c10, bv);
                bi = c11 < bv ? 3 : bi;
                bv = std::min(c11, bv);
                pick[g][hu] = static_cast<uint8_t>(bi >> 1);
                pick[g][lu] = static_cast<uint8_t>(bi & 1);
                total += bv;
            } else if (hi >= 0 || lo >= 0) {
                const unsigned bu =
                    static_cast<unsigned>(hi >= 0 ? hi : lo);
                const unsigned s0 = hi >= 0 ? lb_fix : (hb_fix << 1);
                const unsigned s1 = hi >= 0 ? (1u << 1) | lb_fix
                                            : (hb_fix << 1) | 1u;
                const double c0 = arow[atab[s0]] + costE[4 * bu];
                const double c1 = arow[atab[s1]] + costE[4 * bu + alt];
                const bool t1 = c1 < c0;
                pick[g][bu] = static_cast<uint8_t>(t1);
                total += std::min(c1, c0);
            } else {
                total += arow[atab[(hb_fix << 1) | lb_fix]];
            }
        }

        // Pass 2: blocks whose selector bit shares a data cell with
        // a host block, in decode order (the host is decided first).
        for (const unsigned b : layout.decodeOrder) {
            const unsigned pos = layout.blockBitPos[b];
            const unsigned cell = pos / 2;
            if (std::find(layout.auxOnlyCells.begin(),
                          layout.auxOnlyCells.end(),
                          cell) != layout.auxOnlyCells.end())
                continue;
            unsigned host = 0;
            for (unsigned hb = 0; hb < nblocks; ++hb) {
                if (cell >= layout.blocks[hb].loCell &&
                    cell <= layout.blocks[hb].hiCell && hb != b) {
                    host = hb;
                    break;
                }
            }
            const Mapping &host_map =
                pick[g][host] ? *candMaps[alt] : *candMaps[0];
            const unsigned data_bit =
                static_cast<unsigned>((word >> (pos - 1)) & 1);
            const double *srow = selectRow(stored[cell0 + cell]);
            double best{};
            unsigned best_x = 0;
            for (unsigned x = 0; x < 2; ++x) {
                const State t = host_map.encode((x << 1) | data_bit);
                double cand = srow[pcm::stateIndex(t)];
                cand += costE[4 * b + (x ? alt : 0)];
                const bool take = x == 0 || cand < best;
                best = take ? cand : best;
                best_x = take ? x : best_x;
            }
            pick[g][b] = static_cast<uint8_t>(best_x);
            total += best;
        }
        group_cost[g] = total;
    }

    // Algorithm 1 line 5, with ties resolved toward group 0.
    const unsigned group = group_cost[1] < group_cost[0] ? 1 : 0;

    uint64_t out = word;
    auto set_bit = [&out](unsigned pos, unsigned v) {
        out = (out & ~(uint64_t{1} << pos)) | (uint64_t(v & 1) << pos);
    };
    set_bit(layout.groupBitPos, group);
    for (unsigned b = 0; b < nblocks; ++b)
        set_bit(layout.blockBitPos[b], pick[group][b]);

    // Block cells with their chosen candidate; aux-only cells with
    // their own mapping.
    for (unsigned b = 0; b < nblocks; ++b) {
        const Mapping &m = *candMaps[pick[group][b] ? group + 1 : 0];
        for (unsigned c = layout.blocks[b].loCell;
             c <= layout.blocks[b].hiCell; ++c)
            target[cell0 + c] =
                m.encode(static_cast<unsigned>((out >> (c * 2)) & 3));
    }
    for (const unsigned c : layout.auxOnlyCells) {
        const Mapping &am = c == layout.groupBitPos / 2
                                ? auxGroupMapping()
                                : auxPairMapping();
        target[cell0 + c] =
            am.encode(static_cast<unsigned>((out >> (c * 2)) & 3));
        target.markAux(cell0 + c);
    }
}

void
Wlcrc::encodeInto(const Line512 &data, std::span<const State> stored,
                  EncodeScratch &scratch, pcm::TargetLine &target) const
{
    assert(stored.size() == cellCount());
    (void)scratch;
    target.reset(cellCount());
    target.setAuxStart(lineSymbols); // the flag cell
    if (!compress::Wlc::lineCompressible(data, layout_.k())) {
        // Raw format: flag = S2, plain default-mapping write.
        const Mapping &c1 = tableICandidate(1);
        for (unsigned s = 0; s < lineSymbols; ++s)
            target[s] = c1.encode(data.symbol(s));
        target[lineSymbols] = State::S2;
        return;
    }
    target[lineSymbols] = State::S1; // flag: compressed
    for (unsigned w = 0; w < lineWords; ++w)
        encodeWord(w, data.word(w), stored.data(), target);
}

Line512
Wlcrc::decode(const std::vector<State> &stored) const
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
    for (const unsigned g : {8u, 16u, 32u})
        if (scheme == "WLCRC-" + std::to_string(g))
            return std::make_unique<Wlcrc>(energy, g);
    if (scheme == "WLCRC-16-da") {
        // WlcrcCodec::disturbanceAware's penalty, lambda = 400 pJ.
        const pcm::DisturbanceModel disturb;
        std::array<double, pcm::numStates> penalty{};
        for (unsigned s = 0; s < pcm::numStates; ++s)
            penalty[s] = 400.0 * disturb.der(pcm::stateFromIndex(s));
        return std::make_unique<Wlcrc>(energy, 16, penalty);
    }
    throw std::invalid_argument("no encode reference for scheme '" +
                                scheme + "'");
}

} // namespace wlcrc::coset::reference
