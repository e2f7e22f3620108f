/**
 * @file
 * Binary narrow-sense BCH code, shortened, correcting up to t errors
 * (t = 2 in this project: the "20-bit BCH" the DIN scheme attaches to
 * each encoded memory line).
 *
 * The code is constructed over GF(2^m) with n = 2^m - 1; the
 * generator polynomial is the LCM of the minimal polynomials of
 * alpha..alpha^{2t}. Encoding is systematic, through a byte-at-a-time
 * table-driven LFSR over the packed payload; decoding computes
 * syndromes and solves the error locator directly (closed form for
 * t <= 2) with a Chien search for root finding.
 */

#ifndef WLCRC_ECC_BCH_HH
#define WLCRC_ECC_BCH_HH

#include <array>
#include <cstdint>
#include <vector>

#include "ecc/gf2m.hh"

namespace wlcrc::ecc
{

/** Systematic shortened binary BCH codec. */
class Bch
{
  public:
    /**
     * @param m           field degree; block length n = 2^m - 1.
     * @param t           correctable errors (1 or 2).
     * @param data_bits   shortened payload length; must satisfy
     *                    data_bits + parityBits() <= n.
     */
    Bch(unsigned m, unsigned t, unsigned data_bits);

    unsigned parityBits() const { return parity_; }
    unsigned dataBits() const { return dataBits_; }
    unsigned codewordBits() const { return dataBits_ + parity_; }
    unsigned t() const { return t_; }

    /**
     * Systematically encode @p data (dataBits() bits, LSB-first per
     * byte entry: one bit per vector element).
     * @return codeword = data bits followed by parity bits.
     */
    std::vector<uint8_t> encode(const std::vector<uint8_t> &data) const;

    /**
     * Allocation-free encode over packed bits: data bit j is bit
     * j % 64 of @p words[j / 64] (bits at or past dataBits() are
     * ignored).
     * @return the parity bits, parity bit i at bit i — the bits
     *         encode() appends after the data.
     */
    uint32_t parity(const uint64_t *words) const;

    /**
     * Decode @p received (codewordBits() bits), correcting in place.
     *
     * @return number of corrected errors (0..t), or -1 if the
     *         syndrome is uncorrectable.
     */
    int decode(std::vector<uint8_t> &received) const;

    /** The generator polynomial coefficients, degree parityBits(). */
    const std::vector<uint8_t> &generator() const { return gen_; }

  private:
    GF2m field_;
    unsigned t_;
    unsigned dataBits_;
    unsigned parity_;
    std::vector<uint8_t> gen_;
    /** lfsr_[b] = (b(x) * x^parity) mod gen(x), b of degree < 8. */
    std::array<uint32_t, 256> lfsr_{};
};

} // namespace wlcrc::ecc

#endif // WLCRC_ECC_BCH_HH
