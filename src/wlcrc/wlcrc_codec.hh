/**
 * @file
 * WLCRC: the paper's primary contribution (Section VI) — Word-Level
 * Compression integrated with restricted coset coding.
 *
 * If every 64-bit word of the line has its k MSBs uniform, WLC
 * reclaims k-1 bits per word and each word is independently encoded
 * with restricted cosets: a per-word group bit selects {C1,C2} or
 * {C1,C3} and one bit per data block selects within the group
 * (Algorithm 1). Incompressible lines are written unencoded. A single
 * dedicated flag cell per line distinguishes the two formats, so the
 * total space overhead is one cell in 257 (< 0.4 %).
 *
 * Granularities: 16 (default, WLCRC-16), 32, 8, and 64 — the latter
 * degenerating to unrestricted 3cosets per word, as noted in the
 * paper.
 *
 * The optional multi-objective mode (Section VIII-D) trades energy
 * for endurance: when two choices' energies are within a threshold T
 * of each other, the one updating fewer cells wins.
 *
 * The optional *disturbance-aware* mode implements the paper's
 * stated future work ("extend the WLCRC encoding to be
 * write-disturbance aware"): candidate selection adds a per-state
 * penalty proportional to that state's disturbance error rate, so
 * the encoder steers idle-prone cells toward the immune state S2
 * and away from S3 (DER 27.6 %). The penalty shapes selection only;
 * reported write energy is always the physical energy.
 */

#ifndef WLCRC_WLCRC_WLCRC_CODEC_HH
#define WLCRC_WLCRC_WLCRC_CODEC_HH

#include <array>

#include "common/simd.hh"
#include "coset/codec.hh"
#include "pcm/disturbance.hh"
#include "coset/mapping.hh"
#include "wlcrc/word_layout.hh"

namespace wlcrc::core
{

/** WLC + restricted coset coding. */
class WlcrcCodec : public coset::LineCodec
{
  public:
    /**
     * @param energy            write-energy model.
     * @param granularity_bits  8, 16, 32 or 64.
     * @param endurance_threshold  multi-objective threshold T as a
     *        fraction (e.g. 0.01 for the paper's T = 1 %); 0 disables
     *        the endurance-aware tie-break.
     */
    WlcrcCodec(const pcm::EnergyModel &energy,
               unsigned granularity_bits = 16,
               double endurance_threshold = 0.0,
               const std::array<double, pcm::numStates>
                   &state_penalty_pj = {});

    /**
     * Disturbance-aware variant: per-state selection penalty
     * lambda * DER(state), from the paper's future-work direction.
     *
     * @param lambda_pj  weight converting an error rate into an
     *                   equivalent energy penalty (the expected VnR
     *                   repair cost per exposure; ~400 pJ covers two
     *                   neighbour exposures at mean program energy).
     */
    static WlcrcCodec disturbanceAware(
        const pcm::EnergyModel &energy,
        const pcm::DisturbanceModel &disturb,
        unsigned granularity_bits = 16, double lambda_pj = 400.0);

    std::string name() const override;
    /** 256 data cells + 1 compressed/raw flag cell. */
    unsigned cellCount() const override { return lineSymbols + 1; }

    void encodeInto(const Line512 &data,
                    std::span<const pcm::State> stored,
                    coset::EncodeScratch &scratch,
                    pcm::TargetLine &target) const override;

    Line512 decode(
        const std::vector<pcm::State> &stored) const override;

    unsigned granularityBits() const { return granularity_; }

    /** WLC parameter: number of uniform MSBs required per word. */
    unsigned compressionK() const;

    /** True iff @p data would be stored in compressed+encoded form. */
    bool compressible(const Line512 &data) const;

    /**
     * The restricted layout as the selection kernel reads it
     * (numBlocks == 0 for g = 64, which has none); for kernel tests.
     */
    const simd::RestrictedPlan &selectPlan() const { return plan_; }

  private:
    /** Upper bound on restricted blocks per 64-bit word (g = 8). */
    static constexpr unsigned maxBlocksPerWord = simd::selectMaxBlocks;

    /**
     * Encode a compressible line with restricted cosets (g <= 32),
     * energy only: every word's blocks scored into one buffer, then
     * all eight words' cosets chosen in one Ops::selectRestricted
     * call.
     */
    void encodeLineRestricted(const Line512 &data,
                              const pcm::State *stored,
                              pcm::TargetLine &target) const;
    /** Encode one compressible word with restricted cosets under
     *  the multi-objective tie-break (threshold > 0). */
    void encodeWordRestrictedMo(unsigned w, uint64_t word,
                                const pcm::State *stored,
                                pcm::TargetLine &target) const;
    /** Map word @p w's cells from its encoded bit pattern @p out
     *  (data bits plus the group and selector bits). */
    void placeWordRestricted(unsigned w, uint64_t out,
                             pcm::TargetLine &target) const;
    /** Encode one compressible word (3cosets, g=64). */
    template <bool Mo>
    void encodeWord64(unsigned w, uint64_t word,
                      const pcm::State *stored,
                      pcm::TargetLine &target) const;

    uint64_t decodeWordRestricted(
        unsigned w, const std::vector<pcm::State> &stored) const;
    uint64_t decodeWord64(
        unsigned w, const std::vector<pcm::State> &stored) const;

    /**
     * Selection-cost row of a cell storing @p old_state:
     * row[stateIndex(t)] = 0 if t == old_state, else
     * writeEnergy + state penalty. Cached per codec; recomputed
     * per fetch under the scalar test hook.
     */
    const double *
    selectRow(pcm::State old_state) const
    {
        if (scalarScoringForTest()) [[unlikely]]
            return scalarSelectRow(old_state);
        return selectTable_[pcm::stateIndex(old_state)].data();
    }

    const double *scalarSelectRow(pcm::State old_state) const;

    /** Selection-time cost of programming @p target over @p old. */
    double
    selectCost(pcm::State old_state, pcm::State target) const
    {
        return selectRow(old_state)[pcm::stateIndex(target)];
    }

    unsigned granularity_;
    double threshold_;
    std::array<double, pcm::numStates> penalty_{};
    /** Cached restricted word layout (nullptr for g = 64). */
    const WordLayout *layout_ = nullptr;
    std::array<std::array<double, pcm::numStates>, pcm::numStates>
        selectTable_{};

    /**
     * Per-(stored state, symbol) select-cost contribution of one
     * cell to candidates C1/C2/C3, padded to four lanes so the
     * per-block scan is one vector add per cell. triU_ is the
     * matching updated-cell contribution.
     */
    std::array<std::array<std::array<double, 4>, 4>, pcm::numStates>
        triE_{};
    std::array<std::array<std::array<uint8_t, 4>, 4>,
               pcm::numStates>
        triU_{};

    /** The restricted layout flattened for the selection kernel:
     *  selector-bit owners of each aux-only cell, shared-cell
     *  selector bits in decode order, candidate and aux tables. */
    simd::RestrictedPlan plan_{};

    /** Mapping of each aux-only cell (group-bit cell vs selector
     *  pair cell), in plan_.aux order. */
    std::array<const coset::Mapping *, 4> auxMap_{};

    /** tableICandidate(1..3), cached for the per-word loops. */
    std::array<const coset::Mapping *, 3> candMaps_{};

    /** candMaps_[m]->stateTable(), cached so the per-word assembly
     *  picks each block's LUT with one indexed load. */
    std::array<const uint8_t *, 3> candTables_{};

    unsigned compressionK_ = 0;

    /** Block cell ranges flattened to the argument layout of the
     *  fused simd kernels (accumBlocks4 / mapBlocks). */
    std::array<uint8_t, maxBlocksPerWord> blkLoCost_{};
    std::array<uint8_t, maxBlocksPerWord> blkHiCost_{};
    std::array<uint8_t, maxBlocksPerWord> blkLoCell_{};
    std::array<uint8_t, maxBlocksPerWord> blkHiCell_{};
};

} // namespace wlcrc::core

#endif // WLCRC_WLCRC_WLCRC_CODEC_HH
