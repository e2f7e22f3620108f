/**
 * @file
 * FlipMin (Jacobvitz et al., HPCA'13), adapted to 512-bit MLC lines
 * as in the paper's evaluation: 16 coset candidates — 512-bit XOR
 * masks derived from the dual of a (72,64) Hamming code — and the
 * candidate minimising the differential write energy is selected.
 * The 4-bit candidate index occupies two dedicated aux cells.
 */

#ifndef WLCRC_COSET_FLIPMIN_CODEC_HH
#define WLCRC_COSET_FLIPMIN_CODEC_HH

#include <array>
#include <vector>

#include "common/simd.hh"
#include "coset/codec.hh"
#include "coset/mapping.hh"

namespace wlcrc::coset
{

/** FlipMin with 16 XOR-mask candidates over the whole line. */
class FlipMinCodec : public LineCodec
{
  public:
    /**
     * @param energy  write-energy model.
     * @param seed    deterministic seed for mask derivation.
     */
    explicit FlipMinCodec(const pcm::EnergyModel &energy,
                          uint64_t seed = 0x51f0);

    std::string name() const override { return "FlipMin"; }
    unsigned cellCount() const override { return lineSymbols + 2; }

    void encodeInto(const Line512 &data,
                    std::span<const pcm::State> stored,
                    EncodeScratch &scratch,
                    pcm::TargetLine &target) const override;

    Line512 decode(
        const std::vector<pcm::State> &stored) const override;

    static constexpr unsigned numCandidates = simd::xorCandidates;

  private:
    std::vector<Line512> masks_;
    /** Candidate c's mask symbol at cell i, at [i * 16 + c]: the
     *  per-cell lanes simd::Ops::scoreXorCandidates reads. */
    std::array<uint8_t, lineSymbols * numCandidates> maskSymbols_{};
};

} // namespace wlcrc::coset

#endif // WLCRC_COSET_FLIPMIN_CODEC_HH
