/**
 * @file
 * Serial reference of the FlipMin, DIN and WLCRC restricted encode
 * paths.
 *
 * FlipMinCodec scores its 16 candidates in lanes through
 * simd::Ops::scoreXorCandidates, DinCodec expands and places its
 * codeword a word at a time, Bch::parity runs a byte-at-a-time LFSR,
 * and WlcrcCodec chooses the restricted cosets of a whole line in
 * one simd::Ops::selectRestricted call. The code here is what they
 * replaced, kept verbatim: FlipMin scores one candidate at a time
 * over 256 cells, DIN reads its compressed stream a bit at a time,
 * the BCH remainder is reduced one bit byte at a time, and WLCRC
 * scores and selects one word at a time with scalar code. The
 * simulator never calls it.
 * tests/encode_reference_test.cc and the `encode` stage of
 * wlcrc_fuzz require the production codecs to match it bit for bit.
 */

#ifndef WLCRC_COSET_ENCODE_REFERENCE_HH
#define WLCRC_COSET_ENCODE_REFERENCE_HH

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "compress/fpc_bdi.hh"
#include "coset/codec.hh"
#include "coset/din_codec.hh"
#include "coset/flipmin_codec.hh"
#include "ecc/bch.hh"
#include "wlcrc/wlcrc_codec.hh"

namespace wlcrc::coset::reference
{

/**
 * The BCH encoder as a bit-serial polynomial division: one byte per
 * bit, the generator XORed in for every set data bit. Writes
 * codewordBits() bit bytes, data bits first, then parity.
 */
void bchEncode(const ecc::Bch &bch, const uint8_t *data,
               uint8_t *codeword);

/** FlipMin scoring one candidate at a time; decode is FlipMinCodec's. */
class FlipMin : public LineCodec
{
  public:
    explicit FlipMin(const pcm::EnergyModel &energy,
                     uint64_t seed = 0x51f0);

    std::string name() const override { return "FlipMin"; }
    unsigned cellCount() const override { return lineSymbols + 2; }
    void encodeInto(const Line512 &data,
                    std::span<const pcm::State> stored,
                    EncodeScratch &scratch,
                    pcm::TargetLine &target) const override;
    Line512 decode(
        const std::vector<pcm::State> &stored) const override;

  private:
    FlipMinCodec codec_;
    std::vector<Line512> masks_;
};

/** DIN with a bit-serial stream and bchEncode; decode is DinCodec's. */
class Din : public LineCodec
{
  public:
    explicit Din(const pcm::EnergyModel &energy);

    std::string name() const override { return "DIN"; }
    unsigned cellCount() const override { return lineSymbols + 1; }
    void encodeInto(const Line512 &data,
                    std::span<const pcm::State> stored,
                    EncodeScratch &scratch,
                    pcm::TargetLine &target) const override;
    Line512 decode(
        const std::vector<pcm::State> &stored) const override;

  private:
    DinCodec codec_;
    compress::FpcBdi compressor_;
    ecc::Bch bch_;
};

/**
 * WLCRC at granularity 8, 16 or 32, energy only (no multi-objective
 * tie-break), scoring and selecting one word at a time; decode is
 * WlcrcCodec's.
 */
class Wlcrc : public LineCodec
{
  public:
    Wlcrc(const pcm::EnergyModel &energy, unsigned granularity_bits,
          const std::array<double, pcm::numStates> &state_penalty_pj =
              {});

    std::string name() const override { return codec_.name(); }
    unsigned cellCount() const override { return lineSymbols + 1; }
    void encodeInto(const Line512 &data,
                    std::span<const pcm::State> stored,
                    EncodeScratch &scratch,
                    pcm::TargetLine &target) const override;
    Line512 decode(
        const std::vector<pcm::State> &stored) const override;

  private:
    void encodeWord(unsigned w, uint64_t word, const pcm::State *stored,
                    pcm::TargetLine &target) const;

    core::WlcrcCodec codec_;
    const core::WordLayout &layout_;
    std::array<std::array<double, pcm::numStates>, pcm::numStates>
        select_{};
};

/**
 * The reference codec of @p scheme: "FlipMin", "DIN", "WLCRC-8",
 * "WLCRC-16", "WLCRC-32" or "WLCRC-16-da".
 * @throws std::invalid_argument for any other scheme.
 */
CodecPtr makeReference(const std::string &scheme,
                       const pcm::EnergyModel &energy);

} // namespace wlcrc::coset::reference

#endif // WLCRC_COSET_ENCODE_REFERENCE_HH
