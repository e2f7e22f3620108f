#include "bch.hh"

#include <algorithm>
#include <cassert>
#include <set>
#include <stdexcept>

namespace wlcrc::ecc
{

namespace
{

/**
 * Minimal polynomial (over GF(2)) of alpha^i: the product of
 * (x + alpha^j) over the cyclotomic coset of i. Coefficients end up
 * in GF(2) by construction.
 */
std::vector<uint8_t>
minimalPoly(const GF2m &f, unsigned i)
{
    // Cyclotomic coset {i, 2i, 4i, ...} mod n.
    std::set<unsigned> coset;
    unsigned j = i % f.n();
    while (!coset.count(j)) {
        coset.insert(j);
        j = (j * 2) % f.n();
    }
    // Polynomial over GF(2^m), coefficient of x^k at index k.
    std::vector<uint32_t> poly{1};
    for (unsigned e : coset) {
        const uint32_t root = f.alphaPow(e);
        std::vector<uint32_t> next(poly.size() + 1, 0);
        for (size_t k = 0; k < poly.size(); ++k) {
            next[k + 1] ^= poly[k];            // x * poly
            next[k] ^= f.mul(poly[k], root);   // root * poly
        }
        poly = std::move(next);
    }
    std::vector<uint8_t> bits(poly.size());
    for (size_t k = 0; k < poly.size(); ++k) {
        assert(poly[k] <= 1 && "minimal poly must be binary");
        bits[k] = static_cast<uint8_t>(poly[k]);
    }
    return bits;
}

/** GF(2) polynomial multiply. */
std::vector<uint8_t>
polyMul(const std::vector<uint8_t> &a, const std::vector<uint8_t> &b)
{
    std::vector<uint8_t> r(a.size() + b.size() - 1, 0);
    for (size_t i = 0; i < a.size(); ++i) {
        if (!a[i])
            continue;
        for (size_t j = 0; j < b.size(); ++j)
            r[i + j] ^= a[i] & b[j];
    }
    return r;
}

} // namespace

Bch::Bch(unsigned m, unsigned t, unsigned data_bits)
    : field_(m), t_(t), dataBits_(data_bits)
{
    if (t < 1 || t > 2)
        throw std::invalid_argument("Bch: t must be 1 or 2");

    // Generator = LCM of minimal polynomials of alpha^1 .. alpha^{2t}
    // (even powers share cosets with odd ones, so gather distinct).
    gen_ = {1};
    std::set<unsigned> seen_cosets;
    for (unsigned i = 1; i <= 2 * t; ++i) {
        // Coset representative: smallest element of i's coset.
        unsigned rep = i % field_.n(), j = rep;
        do {
            j = (j * 2) % field_.n();
            rep = std::min(rep, j);
        } while (j != i % field_.n());
        if (!seen_cosets.insert(rep).second)
            continue;
        gen_ = polyMul(gen_, minimalPoly(field_, i));
    }
    parity_ = gen_.size() - 1;
    if (dataBits_ + parity_ > field_.n())
        throw std::invalid_argument("Bch: payload too long");

    // x^k mod gen for k = parity_ .. parity_ + 7, then every byte's
    // remainder as the XOR of its set bits' rows.
    assert(parity_ <= 32); // m <= 16, t <= 2
    const uint64_t top = uint64_t{1} << parity_;
    uint64_t low = 0;
    for (unsigned j = 0; j < parity_; ++j)
        low |= uint64_t{gen_[j]} << j;
    uint64_t xpow[8];
    uint64_t r = low; // x^parity_ mod gen
    for (unsigned k = 0; k < 8; ++k) {
        xpow[k] = r;
        r <<= 1;
        if (r & top)
            r ^= top | low;
    }
    for (unsigned b = 0; b < 256; ++b)
        for (unsigned k = 0; k < 8; ++k)
            if (b >> k & 1)
                lfsr_[b] ^= static_cast<uint32_t>(xpow[k]);
}

std::vector<uint8_t>
Bch::encode(const std::vector<uint8_t> &data) const
{
    assert(data.size() == dataBits_);
    std::vector<uint64_t> words((dataBits_ + 63) / 64, 0);
    for (unsigned j = 0; j < dataBits_; ++j)
        words[j / 64] |= uint64_t{data[j] & 1u} << (j % 64);
    const uint32_t p = parity(words.data());
    std::vector<uint8_t> cw(data);
    for (unsigned i = 0; i < parity_; ++i)
        cw.push_back(static_cast<uint8_t>(p >> i & 1));
    return cw;
}

uint32_t
Bch::parity(const uint64_t *words) const
{
    // Systematic: codeword(x) = data(x) * x^parity + remainder, with
    // data bit j the coefficient of x^(j + parity). The LFSR takes
    // the payload a byte at a time from the top; the byte's high bit
    // is its highest-degree coefficient. Zero bits above dataBits()
    // leave the remainder unchanged, so the top byte is masked, not
    // trimmed.
    const uint64_t mask = (uint64_t{1} << parity_) - 1;
    uint64_t reg = 0;
    for (unsigned b = (dataBits_ + 7) / 8; b-- > 0;) {
        uint64_t byte = (words[b / 8] >> (8 * (b % 8))) & 0xff;
        if (8 * b + 8 > dataBits_)
            byte &= (uint64_t{1} << (dataBits_ - 8 * b)) - 1;
        if (parity_ >= 8)
            reg = ((reg << 8) & mask) ^ lfsr_[(reg >> (parity_ - 8)) ^ byte];
        else
            reg = lfsr_[(reg << (8 - parity_)) ^ byte];
    }
    return static_cast<uint32_t>(reg);
}

int
Bch::decode(std::vector<uint8_t> &received) const
{
    assert(received.size() == codewordBits());
    // Map storage layout back to polynomial coefficient positions:
    // coefficient of x^j is parity[j] for j < parity_, else
    // data[j - parity_].
    auto bit_at = [&](unsigned j) -> uint8_t & {
        return j < parity_ ? received[dataBits_ + j]
                           : received[j - parity_];
    };

    // Syndromes S_i = r(alpha^i), i = 1..2t.
    std::vector<uint32_t> synd(2 * t_ + 1, 0);
    bool all_zero = true;
    for (unsigned i = 1; i <= 2 * t_; ++i) {
        uint32_t s = 0;
        for (unsigned j = 0; j < codewordBits(); ++j) {
            if (bit_at(j))
                s ^= field_.alphaPow(i * j);
        }
        synd[i] = s;
        all_zero &= (s == 0);
    }
    if (all_zero)
        return 0;

    const uint32_t s1 = synd[1];
    if (t_ == 1 || (t_ == 2 && s1 != 0 &&
                    synd[3] == field_.mul(field_.mul(s1, s1), s1))) {
        // Single error at position log(S1).
        if (!s1)
            return -1;
        const unsigned pos = field_.log(s1);
        if (pos >= codewordBits())
            return -1; // error in the shortened (absent) prefix
        bit_at(pos) ^= 1;
        return 1;
    }

    // Two errors: sigma(x) = x^2 + s1 x + (s3 + s1^3)/s1.
    if (!s1)
        return -1;
    const uint32_t s1_cubed =
        field_.mul(field_.mul(s1, s1), s1);
    const uint32_t sigma2 = field_.div(synd[3] ^ s1_cubed, s1);
    // Chien search over valid positions.
    unsigned found[2];
    unsigned nfound = 0;
    for (unsigned j = 0; j < codewordBits() && nfound < 2; ++j) {
        const uint32_t x = field_.alphaPow(j);
        const uint32_t v =
            field_.mul(x, x) ^ field_.mul(s1, x) ^ sigma2;
        if (v == 0)
            found[nfound++] = j;
    }
    if (nfound != 2)
        return -1;
    bit_at(found[0]) ^= 1;
    bit_at(found[1]) ^= 1;
    return 2;
}

} // namespace wlcrc::ecc
