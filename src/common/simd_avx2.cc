/**
 * @file
 * AVX2 implementations of the simd.hh kernels. This translation unit
 * is compiled with -mavx2 on x86-64 (see CMakeLists.txt) while the
 * rest of the library stays at the baseline ISA; dispatch guarantees
 * the functions here only run on CPUs reporting AVX2 and PCLMULQDQ.
 * The crc32 kernel enables PCLMULQDQ with a function-level target
 * attribute, so the file needs no flag beyond -mavx2.
 *
 * Bit-identity: mapSymbolsAvx2/byteDiffMaskAvx2 are pure integer
 * transforms; accumRows4/8 add the same doubles in the same cell
 * order as the scalar reference (vaddpd is four independent per-lane
 * adds), and so does scoreXorCandidates, whose vpermd only moves
 * doubles between lanes, so every kernel reproduces the scalar
 * results exactly.
 * crc32Pclmul is exact carry-less arithmetic over GF(2).
 */

#include "simd.hh"

#if defined(__AVX2__)

#include <cstring>
#include <immintrin.h>

namespace wlcrc::simd
{

namespace
{

void
byteDiffMaskAvx2(const uint8_t *a, const uint8_t *b, unsigned n,
                 uint64_t *mask)
{
    const unsigned nw = (n + 63) / 64;
    for (unsigned w = 0; w < nw; ++w) {
        const unsigned base = w * 64;
        uint64_t m;
        if (base + 64 <= n) {
            const __m256i eq0 = _mm256_cmpeq_epi8(
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(a + base)),
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(b + base)));
            const __m256i eq1 = _mm256_cmpeq_epi8(
                _mm256_loadu_si256(reinterpret_cast<const __m256i *>(
                    a + base + 32)),
                _mm256_loadu_si256(reinterpret_cast<const __m256i *>(
                    b + base + 32)));
            const auto lo = static_cast<uint32_t>(
                _mm256_movemask_epi8(eq0));
            const auto hi = static_cast<uint32_t>(
                _mm256_movemask_epi8(eq1));
            m = ~(uint64_t{lo} | (uint64_t{hi} << 32));
        } else {
            m = 0;
            for (unsigned i = base; i < n; ++i)
                m |= uint64_t{a[i] != b[i]} << (i - base);
        }
        mask[w] = m;
    }
}

/** All 32 symbols of @p word as one byte-per-symbol vector (0..3). */
inline __m256i
symbolsOf(uint64_t word)
{
    // Replicate the word into every 128-bit lane, then spread byte
    // k of the word over symbol bytes 4k..4k+3 (lane-local pshufb).
    const __m256i w = _mm256_set1_epi64x(
        static_cast<long long>(word));
    const __m256i spread = _mm256_setr_epi8(
        0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, //
        4, 4, 4, 4, 5, 5, 5, 5, 6, 6, 6, 6, 7, 7, 7, 7);
    const __m256i bytes = _mm256_shuffle_epi8(w, spread);
    // Symbol c needs bits {2(c%4), 2(c%4)+1} of its byte: shift each
    // byte right by 0/2/4/6 depending on c % 4, then mask to 2 bits.
    const __m256i sh0 = bytes;
    const __m256i sh2 = _mm256_srli_epi16(bytes, 2);
    const __m256i sh4 = _mm256_srli_epi16(bytes, 4);
    const __m256i sh6 = _mm256_srli_epi16(bytes, 6);
    const __m256i pick1 = _mm256_set1_epi32(0x0000ff00);
    const __m256i pick2 = _mm256_set1_epi32(0x00ff0000);
    const __m256i pick3 =
        _mm256_set1_epi32(static_cast<int>(0xff000000u));
    __m256i sym = _mm256_blendv_epi8(sh0, sh2, pick1);
    sym = _mm256_blendv_epi8(sym, sh4, pick2);
    sym = _mm256_blendv_epi8(sym, sh6, pick3);
    return _mm256_and_si256(sym, _mm256_set1_epi8(3));
}

void
mapSymbolsAvx2(uint64_t word, const uint8_t *map4, unsigned lo,
               unsigned hi, uint8_t *out)
{
    const __m256i sym = symbolsOf(word);
    // 4-entry state LUT replicated per lane; pshufb indexes it with
    // each symbol byte.
    const __m256i lut = _mm256_set1_epi32(
        static_cast<int>(uint32_t{map4[0]} | (uint32_t{map4[1]} << 8) |
                         (uint32_t{map4[2]} << 16) |
                         (uint32_t{map4[3]} << 24)));
    const __m256i states = _mm256_shuffle_epi8(lut, sym);
    if (lo == 0 && hi == 31) {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out), states);
        return;
    }
    alignas(32) uint8_t tmp[32];
    _mm256_store_si256(reinterpret_cast<__m256i *>(tmp), states);
    std::memcpy(out + lo, tmp + lo, hi - lo + 1);
}

void
accumRows4Avx2(const double *rows, const uint8_t *stored,
               uint64_t word, unsigned lo, unsigned hi, double *acc)
{
    __m256d a = _mm256_loadu_pd(acc);
    uint64_t w = word >> (2 * lo);
    for (unsigned c = lo; c <= hi; ++c) {
        const auto sym = static_cast<unsigned>(w & 3);
        w >>= 2;
        const double *row = rows + (stored[c] * 4u + sym) * 4u;
        a = _mm256_add_pd(a, _mm256_loadu_pd(row));
    }
    _mm256_storeu_pd(acc, a);
}

void
accumRows8Avx2(const double *rows, const uint8_t *stored,
               uint64_t word, unsigned lo, unsigned hi, double *acc)
{
    __m256d a0 = _mm256_loadu_pd(acc);
    __m256d a1 = _mm256_loadu_pd(acc + 4);
    uint64_t w = word >> (2 * lo);
    for (unsigned c = lo; c <= hi; ++c) {
        const auto sym = static_cast<unsigned>(w & 3);
        w >>= 2;
        const double *row = rows + (stored[c] * 4u + sym) * 8u;
        a0 = _mm256_add_pd(a0, _mm256_loadu_pd(row));
        a1 = _mm256_add_pd(a1, _mm256_loadu_pd(row + 4));
    }
    _mm256_storeu_pd(acc, a0);
    _mm256_storeu_pd(acc + 4, a1);
}

void
accumBlocks4Avx2(const double *rows, const uint8_t *stored,
                 uint64_t word, const uint8_t *lo, const uint8_t *hi,
                 unsigned nblocks, double *acc)
{
    // One accumulator register per block: the per-block chains are
    // independent, so out-of-order execution overlaps them while
    // each chain still adds its cells in ascending order — the
    // per-block sums are bit-identical to accumRows4 per block.
    __m256d a[8];
    for (unsigned b = 0; b < nblocks; ++b)
        a[b] = _mm256_loadu_pd(acc + 4 * b);
    for (unsigned b = 0; b < nblocks; ++b) {
        uint64_t w = word >> (2 * lo[b]);
        __m256d ab = a[b];
        for (unsigned c = lo[b]; c <= hi[b]; ++c) {
            const auto sym = static_cast<unsigned>(w & 3);
            w >>= 2;
            const double *row = rows + (stored[c] * 4u + sym) * 4u;
            ab = _mm256_add_pd(ab, _mm256_loadu_pd(row));
        }
        a[b] = ab;
    }
    for (unsigned b = 0; b < nblocks; ++b)
        _mm256_storeu_pd(acc + 4 * b, a[b]);
}

void
mapBlocksAvx2(uint64_t word, const uint8_t *const *tables,
              const uint8_t *lo, const uint8_t *hi, unsigned nblocks,
              uint8_t *out)
{
    // Decode the word's 32 symbols once, then blend each block's
    // LUT result into place by cell-range mask and copy out the
    // contiguous covered span.
    const __m256i sym = symbolsOf(word);
    const __m256i ramp = _mm256_setr_epi8(
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, //
        16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30,
        31);
    __m256i res = _mm256_setzero_si256();
    for (unsigned b = 0; b < nblocks; ++b) {
        const uint8_t *map4 = tables[b];
        const __m256i lut = _mm256_set1_epi32(static_cast<int>(
            uint32_t{map4[0]} | (uint32_t{map4[1]} << 8) |
            (uint32_t{map4[2]} << 16) | (uint32_t{map4[3]} << 24)));
        const __m256i states = _mm256_shuffle_epi8(lut, sym);
        // Exclude cells below lo[b] or above hi[b] (ramp values are
        // 0..31, so signed byte compares are safe).
        const __m256i below = _mm256_cmpgt_epi8(
            _mm256_set1_epi8(static_cast<char>(lo[b])), ramp);
        const __m256i above = _mm256_cmpgt_epi8(
            ramp, _mm256_set1_epi8(static_cast<char>(hi[b])));
        res = _mm256_blendv_epi8(states, res,
                                 _mm256_or_si256(below, above));
    }
    alignas(32) uint8_t tmp[32];
    _mm256_store_si256(reinterpret_cast<__m256i *>(tmp), res);
    const unsigned a = lo[0];
    const unsigned z = hi[nblocks - 1];
    const unsigned len = z - a + 1;
    if (len >= 16) {
        std::memcpy(out + a, tmp + a, 16);
        std::memcpy(out + z + 1 - 16, tmp + z + 1 - 16, 16);
    } else if (len >= 8) {
        std::memcpy(out + a, tmp + a, 8);
        std::memcpy(out + z + 1 - 8, tmp + z + 1 - 8, 8);
    } else {
        for (unsigned c = a; c <= z; ++c)
            out[c] = tmp[c];
    }
}

/**
 * 16 candidate lanes in four 4-double registers. Per cell, the cost
 * row of (stored state, data symbol) is pre-permuted so that lane x
 * holds rows[s * 4 + (x ^ sym)]; each register then picks its four
 * candidates' entries with one vpermd whose dword indices
 * (2m, 2m + 1) come from that cell's mask bytes. Every lane adds one
 * double per cell in ascending cell order, like the scalar loop.
 */
void
scoreXorCandidatesAvx2(const double *rows, const uint8_t *stored,
                       const uint64_t *data, const uint8_t *masks,
                       unsigned ncells, double *acc)
{
    alignas(32) double perm[16][4];
    for (unsigned s = 0; s < 4; ++s)
        for (unsigned d = 0; d < 4; ++d)
            for (unsigned x = 0; x < 4; ++x)
                perm[s * 4 + d][x] = rows[s * 4 + (x ^ d)];

    // Dword pair k of a register reads mask byte k of its group.
    const __m256i shifts =
        _mm256_setr_epi32(0, 0, 8, 8, 16, 16, 24, 24);
    const __m256i odd = _mm256_setr_epi32(0, 1, 0, 1, 0, 1, 0, 1);
    auto pick = [&](const uint8_t *m4, __m256i row) {
        uint32_t four;
        std::memcpy(&four, m4, sizeof four);
        const __m256i bytes = _mm256_set1_epi32(static_cast<int>(four));
        const __m256i idx = _mm256_or_si256(
            _mm256_slli_epi32(_mm256_srlv_epi32(bytes, shifts), 1),
            odd);
        return _mm256_castsi256_pd(
            _mm256_permutevar8x32_epi32(row, idx));
    };
    __m256d a0 = _mm256_loadu_pd(acc);
    __m256d a1 = _mm256_loadu_pd(acc + 4);
    __m256d a2 = _mm256_loadu_pd(acc + 8);
    __m256d a3 = _mm256_loadu_pd(acc + 12);
    for (unsigned i = 0; i < ncells; ++i) {
        const auto sym = static_cast<unsigned>(
            (data[i / 32] >> (2 * (i % 32))) & 3);
        const __m256i row =
            _mm256_load_si256(reinterpret_cast<const __m256i *>(
                perm[stored[i] * 4u + sym]));
        const uint8_t *m = masks + i * xorCandidates;
        a0 = _mm256_add_pd(a0, pick(m, row));
        a1 = _mm256_add_pd(a1, pick(m + 4, row));
        a2 = _mm256_add_pd(a2, pick(m + 8, row));
        a3 = _mm256_add_pd(a3, pick(m + 12, row));
    }
    _mm256_storeu_pd(acc, a0);
    _mm256_storeu_pd(acc + 4, a1);
    _mm256_storeu_pd(acc + 8, a2);
    _mm256_storeu_pd(acc + 12, a3);
}

inline __m128i
load128(const uint8_t *at)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(at));
}

/**
 * One fold step: the low and high halves of @p x carry-less
 * multiplied by the low and high constants of @p k, plus @p next.
 * (A lambda would not inherit the target attribute.)
 */
__attribute__((target("pclmul"))) inline __m128i
fold128(__m128i x, __m128i k, __m128i next)
{
    return _mm_xor_si128(
        _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                      _mm_clmulepi64_si128(x, k, 0x11)),
        next);
}

/**
 * CRC-32 by carry-less multiplication (Intel, "Fast CRC Computation
 * for Generic Polynomials Using PCLMULQDQ"): four 128-bit
 * accumulators fold 64 bytes per step, collapse into one, fold the
 * remaining whole 16-byte blocks, and the scalar kernel reduces the
 * last 16 folded bytes (from a zero CRC state, since folding keeps
 * the message congruent modulo the polynomial) plus the tail.
 * Constants are x^n mod P for the bit-reflected polynomial:
 * k1/k2 fold across 4x128 bits, k3/k4 across 128 bits.
 */
__attribute__((target("pclmul"))) uint32_t
crc32Pclmul(const uint8_t *p, std::size_t len, uint32_t seed)
{
    if (len < 64)
        return detail::scalarCrc32(p, len, seed);
    const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
    const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);

    __m128i x0 = _mm_xor_si128(
        load128(p), _mm_cvtsi32_si128(static_cast<int>(~seed)));
    __m128i x1 = load128(p + 16);
    __m128i x2 = load128(p + 32);
    __m128i x3 = load128(p + 48);
    p += 64;
    len -= 64;
    for (; len >= 64; p += 64, len -= 64) {
        x0 = fold128(x0, k1k2, load128(p));
        x1 = fold128(x1, k1k2, load128(p + 16));
        x2 = fold128(x2, k1k2, load128(p + 32));
        x3 = fold128(x3, k1k2, load128(p + 48));
    }
    x0 = fold128(x0, k3k4, x1);
    x0 = fold128(x0, k3k4, x2);
    x0 = fold128(x0, k3k4, x3);
    for (; len >= 16; p += 16, len -= 16)
        x0 = fold128(x0, k3k4, load128(p));

    alignas(16) uint8_t folded[16];
    _mm_store_si128(reinterpret_cast<__m128i *>(folded), x0);
    return detail::scalarCrc32(
        p, len, detail::scalarCrc32(folded, 16, ~uint32_t{0}));
}

constexpr Ops avx2Ops = {byteDiffMaskAvx2, mapSymbolsAvx2,
                         accumRows4Avx2, accumRows8Avx2,
                         accumBlocks4Avx2, mapBlocksAvx2,
                         scoreXorCandidatesAvx2, crc32Pclmul};

} // namespace

const Ops *
avx2OpsOrNull()
{
    return &avx2Ops;
}

} // namespace wlcrc::simd

#else // !__AVX2__

namespace wlcrc::simd
{

const Ops *
avx2OpsOrNull()
{
    return nullptr;
}

} // namespace wlcrc::simd

#endif
