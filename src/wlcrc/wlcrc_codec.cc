#include "wlcrc_codec.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <type_traits>

#include "common/simd.hh"
#include "compress/wlc.hh"
#include "coset/aux_coding.hh"

namespace wlcrc::core
{

using coset::Mapping;
using simd::RestrictedPlan;
using coset::tableICandidate;
using pcm::State;

namespace
{

/** Energy and endurance cost of one choice. */
struct Cost
{
    double energy = 0.0;
    unsigned updated = 0;

    Cost &
    operator+=(const Cost &o)
    {
        energy += o.energy;
        updated += o.updated;
        return *this;
    }
};

/**
 * Symbol->state mappings for the aux-only cells, ordered by the
 * expected frequency of selector-bit patterns so the common ones
 * land on low-energy states (the Section IX-A allocation principle,
 * extended to both bits of a shared aux cell).
 *
 * A cell holding (group bit, block bit): all-C1 words give (0,0);
 * biased words that switch wholesale to C2 give (0,1); group-1
 * (random-leaning) words are rarer and already expensive.
 */
const Mapping &
auxGroupMapping()
{
    static const Mapping m({State::S1, State::S2, State::S3,
                            State::S4},
                           "AuxG");
    return m;
}

/** A cell holding two block-selector bits: (0,0) and (1,1) dominate
 *  (runs of data switch candidates together). */
const Mapping &
auxPairMapping()
{
    static const Mapping m({State::S1, State::S3, State::S4,
                            State::S2},
                           "AuxP");
    return m;
}

/**
 * Multi-objective comparison: prefer lower energy, unless the two
 * energies are within fraction @p threshold of the larger, in which
 * case prefer fewer updated cells (Section VIII-D).
 */
bool
better(const Cost &a, const Cost &b, double threshold)
{
    if (threshold > 0.0) {
        const double larger = std::max(a.energy, b.energy);
        if (larger > 0.0 &&
            std::abs(a.energy - b.energy) <= threshold * larger) {
            if (a.updated != b.updated)
                return a.updated < b.updated;
        }
    }
    return a.energy < b.energy;
}

/** Candidate cost type: full Cost under multi-objective mode,
 *  plain energy otherwise (the tie-break never fires at T = 0, so
 *  tracking updated-cell counts would be dead work). */
template <bool Mo>
using CostOf = std::conditional_t<Mo, Cost, double>;

template <bool Mo>
inline CostOf<Mo>
makeCost(double energy, unsigned updated)
{
    if constexpr (Mo) {
        return Cost{energy, updated};
    } else {
        (void)updated;
        return energy;
    }
}

template <bool Mo>
inline bool
betterT(const CostOf<Mo> &a, const CostOf<Mo> &b, double threshold)
{
    if constexpr (Mo)
        return better(a, b, threshold);
    else
        return a < b;
}

} // namespace

WlcrcCodec::WlcrcCodec(
    const pcm::EnergyModel &energy, unsigned granularity_bits,
    double endurance_threshold,
    const std::array<double, pcm::numStates> &state_penalty_pj)
    : LineCodec(energy), granularity_(granularity_bits),
      threshold_(endurance_threshold), penalty_(state_penalty_pj)
{
    if (granularity_ != 8 && granularity_ != 16 &&
        granularity_ != 32 && granularity_ != 64) {
        throw std::invalid_argument(
            "WlcrcCodec: granularity must be 8/16/32/64");
    }
    if (granularity_ != 64)
        layout_ = &WordLayout::restricted(granularity_);
    // g = 64 degenerates to unrestricted 3cosets: 2 reclaimed bits.
    compressionK_ = granularity_ == 64 ? 3 : layout_->reclaimed + 1;
    for (unsigned m = 0; m < 3; ++m) {
        candMaps_[m] = &tableICandidate(m + 1);
        candTables_[m] = candMaps_[m]->stateTable();
    }
    for (unsigned s = 0; s < pcm::numStates; ++s) {
        for (unsigned t = 0; t < pcm::numStates; ++t) {
            selectTable_[s][t] =
                s == t ? 0.0
                       : energy.writeEnergy(pcm::stateFromIndex(s),
                                            pcm::stateFromIndex(t)) +
                             penalty_[t];
        }
    }

    // Per-cell contribution of each (stored, symbol) pair to the
    // three candidate costs; lane 3 stays zero (vector padding).
    for (unsigned s = 0; s < pcm::numStates; ++s) {
        for (unsigned sym = 0; sym < 4; ++sym) {
            for (unsigned m = 0; m < 3; ++m) {
                const pcm::State t = candMaps_[m]->encode(sym);
                triE_[s][sym][m] =
                    selectTable_[s][pcm::stateIndex(t)];
                triU_[s][sym][m] =
                    t != pcm::stateFromIndex(s) ? 1 : 0;
            }
        }
    }

    if (layout_) {
        // Flatten the layout's selector-bit ownership searches into
        // the plan, so the selection loops run over plain arrays.
        const WordLayout &l = *layout_;
        const unsigned nblocks =
            static_cast<unsigned>(l.blocks.size());
        auto owner = [&](unsigned pos) -> int8_t {
            if (pos == l.groupBitPos)
                return -1; // the group bit
            for (unsigned b = 0; b < nblocks; ++b)
                if (l.blockBitPos[b] == pos)
                    return static_cast<int8_t>(b);
            return -2; // unused (never happens for 8/16/32)
        };
        for (unsigned m = 0; m < 3; ++m)
            std::copy_n(candTables_[m], 4, plan_.cand[m].begin());
        plan_.numAux = static_cast<unsigned>(l.auxOnlyCells.size());
        assert(plan_.numAux <= plan_.aux.size());
        for (unsigned i = 0; i < plan_.numAux; ++i) {
            const unsigned cell = l.auxOnlyCells[i];
            auxMap_[i] = cell == l.groupBitPos / 2
                             ? &auxGroupMapping()
                             : &auxPairMapping();
            auto &ap = plan_.aux[i];
            ap.cell = static_cast<uint8_t>(cell);
            ap.hi = owner(cell * 2 + 1);
            ap.lo = owner(cell * 2);
            std::copy_n(auxMap_[i]->stateTable(), 4, ap.map.begin());
        }
        plan_.numBlocks = nblocks;
        plan_.groupBitPos = l.groupBitPos;
        for (unsigned b = 0; b < nblocks; ++b) {
            plan_.blockBitPos[b] =
                static_cast<uint8_t>(l.blockBitPos[b]);
            blkLoCost_[b] =
                static_cast<uint8_t>(l.blocks[b].loCostCell);
            blkHiCost_[b] =
                static_cast<uint8_t>(l.blocks[b].hiCostCell);
            blkLoCell_[b] = static_cast<uint8_t>(l.blocks[b].loCell);
            blkHiCell_[b] = static_cast<uint8_t>(l.blocks[b].hiCell);
        }
        for (const unsigned b : l.decodeOrder) {
            const unsigned pos = l.blockBitPos[b];
            const unsigned cell = pos / 2;
            bool in_aux = false;
            for (const unsigned a : l.auxOnlyCells)
                in_aux |= a == cell;
            if (in_aux)
                continue;
            bool found_host = false;
            unsigned host = 0;
            for (unsigned hb = 0; hb < nblocks; ++hb) {
                if (cell >= l.blocks[hb].loCell &&
                    cell <= l.blocks[hb].hiCell && hb != b) {
                    found_host = true;
                    host = hb;
                    break;
                }
            }
            assert(found_host && pos % 2 == 1 &&
                   "selector must be the high bit of a data cell");
            (void)found_host;
            assert(plan_.numShared < plan_.shared.size());
            plan_.shared[plan_.numShared++] = {
                static_cast<uint8_t>(b), static_cast<uint8_t>(host),
                static_cast<uint8_t>(pos)};
        }
    }
}

const double *
WlcrcCodec::scalarSelectRow(State old_state) const
{
    // Scalar test hook: recompute from the EnergyModel per fetch.
    thread_local std::array<std::array<double, pcm::numStates>, 4>
        ring;
    thread_local unsigned slot = 0;
    auto &row = ring[slot];
    slot = (slot + 1) % ring.size();
    for (unsigned t = 0; t < pcm::numStates; ++t) {
        const State ts = pcm::stateFromIndex(t);
        row[t] = old_state == ts
                     ? 0.0
                     : energyModel().writeEnergy(old_state, ts) +
                           penalty_[t];
    }
    return row.data();
}

WlcrcCodec
WlcrcCodec::disturbanceAware(const pcm::EnergyModel &energy,
                             const pcm::DisturbanceModel &disturb,
                             unsigned granularity_bits,
                             double lambda_pj)
{
    std::array<double, pcm::numStates> penalty{};
    for (unsigned s = 0; s < pcm::numStates; ++s) {
        penalty[s] =
            lambda_pj * disturb.der(pcm::stateFromIndex(s));
    }
    return WlcrcCodec(energy, granularity_bits, 0.0, penalty);
}

std::string
WlcrcCodec::name() const
{
    std::string n = "WLCRC-" + std::to_string(granularity_);
    if (threshold_ > 0.0)
        n += "-mo";
    for (const double p : penalty_) {
        if (p > 0.0) {
            n += "-da";
            break;
        }
    }
    return n;
}

unsigned
WlcrcCodec::compressionK() const
{
    return compressionK_;
}

bool
WlcrcCodec::compressible(const Line512 &data) const
{
    return compress::Wlc::lineCompressible(data, compressionK());
}

void
WlcrcCodec::encodeLineRestricted(const Line512 &data,
                                 const State *stored,
                                 pcm::TargetLine &target) const
{
    const unsigned nblocks = plan_.numBlocks;
    const unsigned stride = nblocks * 4;
    const auto *cells = reinterpret_cast<const uint8_t *>(stored);
    uint64_t words[lineWords];
    uint64_t out[lineWords];
    for (unsigned w = 0; w < lineWords; ++w)
        words[w] = data.word(w);

    // Per-block cost of each candidate over the fully-known cells
    // (Algorithm 1 line 4), [word][block][candidate] with lane 3 as
    // padding, zeroed once for the whole line.
    alignas(32) std::array<double, lineWords * maxBlocksPerWord * 4>
        cost;
    std::fill_n(cost.data(), lineWords * stride, 0.0);
    if (!scalarScoringForTest()) [[likely]] {
        // One fused accumBlocks4 call per word over the precomputed
        // (stored, symbol) contribution rows, then the group and
        // selector choice of all eight words (Algorithm 1 lines
        // 5-6, evaluated in parallel in hardware) in one call.
        const simd::Ops &k = simd::ops();
        for (unsigned w = 0; w < lineWords; ++w)
            k.accumBlocks4(triE_[0][0].data(), cells + w * 32,
                           words[w], blkLoCost_.data(),
                           blkHiCost_.data(), nblocks,
                           cost.data() + w * stride);
        k.selectRestricted(plan_, selectTable_[0].data(), cost.data(),
                           cells, words, out);
    } else {
        // Scoring hook: rows recomputed per fetch, the same doubles
        // in the same cell order, and the scalar selection kernel.
        for (unsigned w = 0; w < lineWords; ++w) {
            for (unsigned b = 0; b < nblocks; ++b) {
                double *acc = cost.data() + w * stride + b * 4;
                for (unsigned c = blkLoCost_[b]; c <= blkHiCost_[b];
                     ++c) {
                    const unsigned sym = static_cast<unsigned>(
                        (words[w] >> (c * 2)) & 3);
                    const double *row = selectRow(stored[w * 32 + c]);
                    for (unsigned m = 0; m < 3; ++m)
                        acc[m] += row[candTables_[m][sym]];
                }
            }
        }
        std::array<double, pcm::numStates * pcm::numStates> select;
        for (unsigned s = 0; s < pcm::numStates; ++s)
            std::copy_n(scalarSelectRow(pcm::stateFromIndex(s)),
                        pcm::numStates, select.begin() + s * 4);
        simd::detail::scalarSelectRestricted(
            plan_, select.data(), cost.data(), cells, words, out);
    }
    for (unsigned w = 0; w < lineWords; ++w)
        placeWordRestricted(w, out[w], target);
}

void
WlcrcCodec::placeWordRestricted(unsigned w, uint64_t out,
                                pcm::TargetLine &target) const
{
    // Block cells with their chosen candidate (one fused kernel call
    // for the whole word); aux-only cells with their own mapping.
    const unsigned cell0 = w * 32;
    const unsigned group =
        static_cast<unsigned>((out >> plan_.groupBitPos) & 1);
    const uint8_t *tables[maxBlocksPerWord];
    for (unsigned b = 0; b < plan_.numBlocks; ++b)
        tables[b] = candTables_[(out >> plan_.blockBitPos[b]) & 1
                                    ? group + 1
                                    : 0];
    simd::ops().mapBlocks(
        out, tables, blkLoCell_.data(), blkHiCell_.data(),
        plan_.numBlocks,
        reinterpret_cast<uint8_t *>(target.states()) + cell0);
    for (unsigned a = 0; a < plan_.numAux; ++a) {
        const RestrictedPlan::Aux &ap = plan_.aux[a];
        const unsigned sym =
            static_cast<unsigned>((out >> (ap.cell * 2)) & 3);
        target[cell0 + ap.cell] = pcm::stateFromIndex(ap.map[sym]);
        target.markAux(cell0 + ap.cell);
    }
}

void
WlcrcCodec::encodeWordRestrictedMo(unsigned w, uint64_t word,
                                   const State *stored,
                                   pcm::TargetLine &target) const
{
    const WordLayout &layout = *layout_;
    const unsigned cell0 = w * 32;
    const unsigned nblocks = plan_.numBlocks;

    // Per-block energy and updated-cell count of each candidate over
    // the fully-known cells.
    std::array<std::array<Cost, 3>, maxBlocksPerWord> cost{};
    for (unsigned b = 0; b < nblocks; ++b) {
        const BlockLayout &blk = layout.blocks[b];
        if (!scalarScoringForTest()) [[likely]] {
            std::array<double, 4> e{};
            std::array<uint32_t, 4> u{};
            for (unsigned c = blk.loCostCell; c <= blk.hiCostCell;
                 ++c) {
                const unsigned sym = static_cast<unsigned>(
                    (word >> (c * 2)) & 3);
                const unsigned s =
                    pcm::stateIndex(stored[cell0 + c]);
                const double *ce = triE_[s][sym].data();
                for (unsigned m = 0; m < 4; ++m)
                    e[m] += ce[m];
                const uint8_t *cu = triU_[s][sym].data();
                for (unsigned m = 0; m < 4; ++m)
                    u[m] += cu[m];
            }
            for (unsigned m = 0; m < 3; ++m)
                cost[b][m] = Cost{e[m], u[m]};
        } else {
            for (unsigned c = blk.loCostCell; c <= blk.hiCostCell;
                 ++c) {
                const unsigned sym =
                    static_cast<unsigned>((word >> (c * 2)) & 3);
                const State old_state = stored[cell0 + c];
                const double *row = selectRow(old_state);
                for (unsigned m = 0; m < 3; ++m) {
                    const State t = candMaps_[m]->encode(sym);
                    cost[b][m] += Cost{row[pcm::stateIndex(t)],
                                       t != old_state ? 1u : 0u};
                }
            }
        }
    }

    // Evaluate both groups; within each, decide every selector bit
    // together with the aux cell it lands in (plan order, as in
    // Ops::selectRestricted).
    Cost group_cost[2] = {};
    std::array<std::array<uint8_t, maxBlocksPerWord>, 2> pick{};
    for (unsigned g = 0; g < 2; ++g) {
        const unsigned alt = g + 1; // candidate index into candMaps_
        Cost total{};

        // Pass 1: blocks whose selector bit sits in an aux-only
        // cell. Bits sharing one cell are decided jointly (their
        // states are coupled through the 2-bit symbol). Writing an
        // auxiliary cell is a real differential write, so the
        // selection charges for it — exactly as the unrestricted
        // codecs do.
        for (unsigned a = 0; a < plan_.numAux; ++a) {
            const RestrictedPlan::Aux &ap = plan_.aux[a];
            const Mapping &am = *auxMap_[a];
            const State old_state = stored[cell0 + ap.cell];
            const double *arow = selectRow(old_state);
            const int hi = ap.hi;
            const int lo = ap.lo;
            Cost best{};
            unsigned best_hi = 0, best_lo = 0;
            bool first = true;
            for (unsigned x = 0; x < (hi >= 0 ? 2u : 1u); ++x) {
                for (unsigned y = 0; y < (lo >= 0 ? 2u : 1u); ++y) {
                    const unsigned hb = hi == -1 ? g : x;
                    const unsigned lb = lo == -1 ? g : y;
                    const State t = am.encode((hb << 1) | lb);
                    Cost cand{arow[pcm::stateIndex(t)],
                              t != old_state ? 1u : 0u};
                    if (hi >= 0)
                        cand += cost[hi][x ? alt : 0];
                    if (lo >= 0)
                        cand += cost[lo][y ? alt : 0];
                    const bool take =
                        first || better(cand, best, threshold_);
                    best = take ? cand : best;
                    best_hi = take ? x : best_hi;
                    best_lo = take ? y : best_lo;
                    first = false;
                }
            }
            if (hi >= 0)
                pick[g][hi] = static_cast<uint8_t>(best_hi);
            if (lo >= 0)
                pick[g][lo] = static_cast<uint8_t>(best_lo);
            total += best;
        }

        // Pass 2: blocks whose selector bit shares a data cell with
        // another block (decode order guarantees the host block is
        // already decided). The shared cell is mapped by the host
        // block's candidate.
        for (unsigned sp = 0; sp < plan_.numShared; ++sp) {
            const RestrictedPlan::Shared &plan = plan_.shared[sp];
            const unsigned cell = plan.pos / 2;
            const Mapping &host_map =
                pick[g][plan.host] ? *candMaps_[alt] : *candMaps_[0];
            const unsigned data_bit = static_cast<unsigned>(
                (word >> (plan.pos - 1)) & 1);
            const State old_state = stored[cell0 + cell];
            const double *srow = selectRow(old_state);
            Cost best{};
            unsigned best_x = 0;
            for (unsigned x = 0; x < 2; ++x) {
                const State t = host_map.encode((x << 1) | data_bit);
                Cost cand{srow[pcm::stateIndex(t)],
                          t != old_state ? 1u : 0u};
                cand += cost[plan.block][x ? alt : 0];
                const bool take =
                    x == 0 || better(cand, best, threshold_);
                best = take ? cand : best;
                best_x = take ? x : best_x;
            }
            pick[g][plan.block] = static_cast<uint8_t>(best_x);
            total += best;
        }
        group_cost[g] = total;
    }

    // Algorithm 1 line 5, with ties resolved toward group 0.
    const unsigned group =
        better(group_cost[1], group_cost[0], threshold_) ? 1 : 0;

    // The final bit pattern: data bits + aux bits in the reclaimed
    // region.
    uint64_t out = word;
    auto set_bit = [&out](unsigned pos, unsigned v) {
        out = (out & ~(uint64_t{1} << pos)) |
              (uint64_t(v & 1) << pos);
    };
    set_bit(plan_.groupBitPos, group);
    for (unsigned b = 0; b < nblocks; ++b)
        set_bit(plan_.blockBitPos[b], pick[group][b]);
    placeWordRestricted(w, out, target);
}

template <bool Mo>
void
WlcrcCodec::encodeWord64(unsigned w, uint64_t word,
                         const State *stored,
                         pcm::TargetLine &target) const
{
    using CostT = CostOf<Mo>;
    // WLCRC-64 == unrestricted 3cosets on bits 61..0; the candidate
    // index is held in cell 31 directly as a state (C1->S1 etc.).
    const unsigned cell0 = w * 32;
    CostT cost[3] = {};
    if (!scalarScoringForTest()) [[likely]] {
        std::array<double, 4> e{};
        std::array<uint32_t, 4> u{};
        if constexpr (!Mo) {
            simd::ops().accumRows4(
                triE_[0][0].data(),
                reinterpret_cast<const uint8_t *>(stored) + cell0,
                word, 0, 30, e.data());
        } else {
            for (unsigned c = 0; c < 31; ++c) {
                const unsigned sym =
                    static_cast<unsigned>((word >> (c * 2)) & 3);
                const unsigned s =
                    pcm::stateIndex(stored[cell0 + c]);
                const double *ce = triE_[s][sym].data();
                for (unsigned m = 0; m < 4; ++m)
                    e[m] += ce[m];
                const uint8_t *cu = triU_[s][sym].data();
                for (unsigned m = 0; m < 4; ++m)
                    u[m] += cu[m];
            }
        }
        for (unsigned m = 0; m < 3; ++m)
            cost[m] = makeCost<Mo>(e[m], u[m]);
    } else {
        for (unsigned c = 0; c < 31; ++c) {
            const unsigned sym =
                static_cast<unsigned>((word >> (c * 2)) & 3);
            const State old_state = stored[cell0 + c];
            const double *row = selectRow(old_state);
            for (unsigned m = 0; m < 3; ++m) {
                const State t = candMaps_[m]->encode(sym);
                cost[m] += makeCost<Mo>(row[pcm::stateIndex(t)],
                                        t != old_state ? 1u : 0u);
            }
        }
    }
    for (unsigned m = 0; m < 3; ++m) {
        const State aux = coset::auxIndexState(m);
        cost[m] += makeCost<Mo>(selectCost(stored[cell0 + 31], aux),
                                aux != stored[cell0 + 31] ? 1u : 0u);
    }
    unsigned best = 0;
    for (unsigned m = 1; m < 3; ++m)
        if (betterT<Mo>(cost[m], cost[best], threshold_))
            best = m;

    simd::ops().mapSymbols(
        word, candTables_[best], 0, 30,
        reinterpret_cast<uint8_t *>(target.states()) + cell0);
    target[cell0 + 31] = coset::auxIndexState(best);
    target.markAux(cell0 + 31);
}

void
WlcrcCodec::encodeInto(const Line512 &data,
                       std::span<const State> stored,
                       coset::EncodeScratch &scratch,
                       pcm::TargetLine &target) const
{
    assert(stored.size() == cellCount());
    (void)scratch;
    target.reset(cellCount());
    target.setAuxStart(lineSymbols); // the flag cell

    if (!compressible(data)) {
        // Raw format: flag = S2, plain default-mapping write.
        uint8_t *tgt = reinterpret_cast<uint8_t *>(target.states());
        const simd::Ops &k = simd::ops();
        for (unsigned w = 0; w < lineWords; ++w)
            k.mapSymbols(data.word(w), candTables_[0], 0, 31,
                         tgt + w * 32);
        target[lineSymbols] = State::S2;
        return;
    }

    target[lineSymbols] = State::S1; // flag: compressed
    const State *cells = stored.data();
    if (granularity_ != 64 && threshold_ == 0.0) {
        encodeLineRestricted(data, cells, target);
    } else if (granularity_ != 64) {
        for (unsigned w = 0; w < lineWords; ++w)
            encodeWordRestrictedMo(w, data.word(w), cells, target);
    } else if (threshold_ > 0.0) {
        for (unsigned w = 0; w < lineWords; ++w)
            encodeWord64<true>(w, data.word(w), cells, target);
    } else {
        for (unsigned w = 0; w < lineWords; ++w)
            encodeWord64<false>(w, data.word(w), cells, target);
    }
}

uint64_t
WlcrcCodec::decodeWordRestricted(
    unsigned w, const std::vector<State> &stored) const
{
    const unsigned cell0 = w * 32;

    uint64_t bits = 0;
    auto set_sym = [&bits](unsigned cell, unsigned sym) {
        bits = (bits & ~(uint64_t{3} << (cell * 2))) |
               (uint64_t(sym & 3) << (cell * 2));
    };
    // Aux-only cells first: they hold the group bit and the selector
    // bits of the independently-decodable blocks (written through
    // the frequency-ordered aux mappings).
    for (unsigned a = 0; a < plan_.numAux; ++a) {
        const unsigned c = plan_.aux[a].cell;
        set_sym(c, auxMap_[a]->decode(stored[cell0 + c]));
    }

    const unsigned group =
        static_cast<unsigned>((bits >> plan_.groupBitPos) & 1);
    const Mapping &c1 = *candMaps_[0];
    const Mapping &alt = *candMaps_[group + 1];

    // Blocks in dependency order: a block whose selector bit lives
    // inside another block's cells is decoded after that block.
    for (const unsigned b : layout_->decodeOrder) {
        const unsigned sel = static_cast<unsigned>(
            (bits >> plan_.blockBitPos[b]) & 1);
        const Mapping &m = sel ? alt : c1;
        for (unsigned c = blkLoCell_[b]; c <= blkHiCell_[b]; ++c)
            set_sym(c, m.decode(stored[cell0 + c]));
    }

    // WLC decompression: extend the sign bit over the reclaimed MSBs.
    return compress::Wlc::signExtendWord(bits, layout_->reclaimed);
}

uint64_t
WlcrcCodec::decodeWord64(unsigned w,
                         const std::vector<State> &stored) const
{
    const unsigned cell0 = w * 32;
    const unsigned idx =
        coset::auxIndexFromState(stored[cell0 + 31]);
    const Mapping &m = *candMaps_[idx < 3 ? idx : 0];
    uint64_t bits = 0;
    for (unsigned c = 0; c < 31; ++c) {
        bits |= uint64_t(m.decode(stored[cell0 + c])) << (c * 2);
    }
    return compress::Wlc::signExtendWord(bits, 2);
}

Line512
WlcrcCodec::decode(const std::vector<State> &stored) const
{
    assert(stored.size() == cellCount());
    Line512 data;
    if (stored[lineSymbols] != State::S1) {
        const Mapping &c1 = *candMaps_[0];
        for (unsigned s = 0; s < lineSymbols; ++s)
            data.setSymbol(s, c1.decode(stored[s]));
        return data;
    }
    for (unsigned w = 0; w < lineWords; ++w) {
        data.setWord(w, granularity_ == 64
                            ? decodeWord64(w, stored)
                            : decodeWordRestricted(w, stored));
    }
    return data;
}

} // namespace wlcrc::core
