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
 * results exactly. selectRestricted runs the scalar per-word
 * selection with one word per lane: the same adds in the same order,
 * vcmppd for every strict-< and minpd with the operand order of the
 * scalar std::min.
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
    // Row index (stored * 4 + sym) of all 32 cells, decoded up front
    // in one vector pass (stored states are 0..3, so the 16-bit shift
    // carries nothing across bytes).
    alignas(32) uint8_t idx[32];
    _mm256_store_si256(
        reinterpret_cast<__m256i *>(idx),
        _mm256_or_si256(
            _mm256_slli_epi16(
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(stored)),
                2),
            symbolsOf(word)));
    // One accumulator register per block: the per-block chains are
    // independent, so out-of-order execution overlaps them while
    // each chain still adds its cells in ascending order — the
    // per-block sums are bit-identical to accumRows4 per block.
    for (unsigned b = 0; b < nblocks; ++b) {
        __m256d ab = _mm256_loadu_pd(acc + 4 * b);
        for (unsigned c = lo[b]; c <= hi[b]; ++c)
            ab = _mm256_add_pd(ab, _mm256_loadu_pd(rows + idx[c] * 4u));
        _mm256_storeu_pd(acc + 4 * b, ab);
    }
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

/** Transpose four 4-double rows into four columns. */
inline void
transpose4(__m256d r0, __m256d r1, __m256d r2, __m256d r3, __m256d *c)
{
    const __m256d t0 = _mm256_unpacklo_pd(r0, r1);
    const __m256d t1 = _mm256_unpackhi_pd(r0, r1);
    const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
    const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
    c[0] = _mm256_permute2f128_pd(t0, t2, 0x20);
    c[1] = _mm256_permute2f128_pd(t1, t3, 0x20);
    c[2] = _mm256_permute2f128_pd(t0, t2, 0x31);
    c[3] = _mm256_permute2f128_pd(t1, t3, 0x31);
}

/**
 * The four selection-cost rows of cell @p c of the four words at
 * @p cells, one lane per word: lane w of r[t] is
 * select[s_w * 4 + t], where s_w is the cell's stored state in word
 * w and col[t] is column t of the table. One vpermd per row.
 */
inline void
rowsOfCell(const __m256d *col, const uint8_t *cells, unsigned c,
           __m256d *r)
{
    const int s0 = 2 * cells[c], s1 = 2 * cells[32 + c];
    const int s2 = 2 * cells[64 + c], s3 = 2 * cells[96 + c];
    const __m256i lanes = _mm256_setr_epi32(
        s0, s0 + 1, s1, s1 + 1, s2, s2 + 1, s3, s3 + 1);
    for (unsigned t = 0; t < 4; ++t)
        r[t] = _mm256_castsi256_pd(_mm256_permutevar8x32_epi32(
            _mm256_castpd_si256(col[t]), lanes));
}

/**
 * The restricted-coset selection of four words, one per lane: the
 * scalar kernel's per-word passes with every double computed by the
 * same adds in the same order, and every choice a compare mask.
 * The groups' passes are interleaved cell by cell (each group still
 * adds its winners in plan order), so each cell's rows are looked
 * up once for both groups.
 */
void
selectRestrictedQuad(const RestrictedPlan &plan, const __m256d *col,
                     const double *cost, const uint8_t *cells,
                     const uint64_t *words, uint64_t *out)
{
    const unsigned nb = plan.numBlocks;
    const unsigned stride = nb * 4;
    // [block][candidate], lanes = words.
    __m256d c[selectMaxBlocks][4];
    for (unsigned b = 0; b < nb; ++b)
        transpose4(_mm256_loadu_pd(cost + 4 * b),
                   _mm256_loadu_pd(cost + stride + 4 * b),
                   _mm256_loadu_pd(cost + 2 * stride + 4 * b),
                   _mm256_loadu_pd(cost + 3 * stride + 4 * b), c[b]);
    const __m256i w = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(words));

    __m256d total[2] = {_mm256_setzero_pd(), _mm256_setzero_pd()};
    __m256d pick[2][selectMaxBlocks];
    for (unsigned b = 0; b < nb; ++b)
        pick[0][b] = pick[1][b] = _mm256_setzero_pd();

    // Pass 1: aux-only cells.
    for (unsigned a = 0; a < plan.numAux; ++a) {
        const RestrictedPlan::Aux &ap = plan.aux[a];
        __m256d r[4];
        rowsOfCell(col, cells, ap.cell, r);
        const uint8_t *map = ap.map.data();
        const int hi = ap.hi;
        const int lo = ap.lo;
        if (hi >= 0 && lo >= 0) {
            const __m256d *ch = c[hi];
            const __m256d *cl = c[lo];
            const __m256d c00 =
                _mm256_add_pd(_mm256_add_pd(r[map[0]], ch[0]), cl[0]);
            for (unsigned g = 0; g < 2; ++g) {
                const unsigned alt = g + 1;
                const __m256d c01 = _mm256_add_pd(
                    _mm256_add_pd(r[map[1]], ch[0]), cl[alt]);
                const __m256d c10 = _mm256_add_pd(
                    _mm256_add_pd(r[map[2]], ch[alt]), cl[0]);
                const __m256d c11 = _mm256_add_pd(
                    _mm256_add_pd(r[map[3]], ch[alt]), cl[alt]);
                // bv = std::min(c, bv) is minpd(bv, c); the pick
                // bits follow each strict-< take.
                __m256d t = _mm256_cmp_pd(c01, c00, _CMP_LT_OQ);
                __m256d bv = _mm256_min_pd(c00, c01);
                __m256d ph = _mm256_setzero_pd();
                __m256d pl = t;
                t = _mm256_cmp_pd(c10, bv, _CMP_LT_OQ);
                bv = _mm256_min_pd(bv, c10);
                ph = _mm256_or_pd(ph, t);
                pl = _mm256_andnot_pd(t, pl);
                t = _mm256_cmp_pd(c11, bv, _CMP_LT_OQ);
                bv = _mm256_min_pd(bv, c11);
                ph = _mm256_or_pd(ph, t);
                pl = _mm256_or_pd(pl, t);
                pick[g][hi] = ph;
                pick[g][lo] = pl;
                total[g] = _mm256_add_pd(total[g], bv);
            }
        } else if (hi >= 0 || lo >= 0) {
            const unsigned bu = static_cast<unsigned>(hi >= 0 ? hi : lo);
            for (unsigned g = 0; g < 2; ++g) {
                const unsigned hb_fix = hi == -1 ? g : 0;
                const unsigned lb_fix = lo == -1 ? g : 0;
                const unsigned s0 = hi >= 0 ? lb_fix : (hb_fix << 1);
                const unsigned s1 = hi >= 0 ? (1u << 1) | lb_fix
                                            : (hb_fix << 1) | 1u;
                const __m256d c0 = _mm256_add_pd(r[map[s0]], c[bu][0]);
                const __m256d c1 =
                    _mm256_add_pd(r[map[s1]], c[bu][g + 1]);
                pick[g][bu] = _mm256_cmp_pd(c1, c0, _CMP_LT_OQ);
                // std::min(c1, c0) is minpd(c0, c1).
                total[g] =
                    _mm256_add_pd(total[g], _mm256_min_pd(c0, c1));
            }
        } else {
            for (unsigned g = 0; g < 2; ++g) {
                const unsigned hb_fix = hi == -1 ? g : 0;
                const unsigned lb_fix = lo == -1 ? g : 0;
                total[g] = _mm256_add_pd(total[g],
                                         r[map[(hb_fix << 1) | lb_fix]]);
            }
        }
    }

    // Pass 2: selector bits in a host block's data cell.
    for (unsigned sp = 0; sp < plan.numShared; ++sp) {
        const RestrictedPlan::Shared &sh = plan.shared[sp];
        __m256d r[4];
        rowsOfCell(col, cells, sh.pos / 2, r);
        const __m256i bit =
            _mm256_set1_epi64x(int64_t{1} << (sh.pos - 1));
        const __m256d one = _mm256_castsi256_pd(
            _mm256_cmpeq_epi64(_mm256_and_si256(w, bit), bit));
        // Per lane: row[cand[m][2x + data bit]].
        const auto row = [&](unsigned m, unsigned x) {
            const uint8_t *t = plan.cand[m].data() + 2 * x;
            return _mm256_blendv_pd(r[t[0]], r[t[1]], one);
        };
        const __m256d v00 = row(0, 0);
        const __m256d v01 = row(0, 1);
        for (unsigned g = 0; g < 2; ++g) {
            const __m256d host = pick[g][sh.host];
            const __m256d c0 = _mm256_add_pd(
                _mm256_blendv_pd(v00, row(g + 1, 0), host),
                c[sh.block][0]);
            const __m256d c1 = _mm256_add_pd(
                _mm256_blendv_pd(v01, row(g + 1, 1), host),
                c[sh.block][g + 1]);
            const __m256d t1 = _mm256_cmp_pd(c1, c0, _CMP_LT_OQ);
            pick[g][sh.block] = t1;
            total[g] =
                _mm256_add_pd(total[g], _mm256_blendv_pd(c0, c1, t1));
        }
    }

    // Ties go to group 0; then set the group and selector bits.
    const __m256d group = _mm256_cmp_pd(total[1], total[0], _CMP_LT_OQ);
    uint64_t clear = uint64_t{1} << plan.groupBitPos;
    __m256i set = _mm256_and_si256(
        _mm256_castpd_si256(group),
        _mm256_set1_epi64x(static_cast<int64_t>(clear)));
    for (unsigned b = 0; b < nb; ++b) {
        const uint64_t bit = uint64_t{1} << plan.blockBitPos[b];
        clear |= bit;
        const __m256d chosen =
            _mm256_blendv_pd(pick[0][b], pick[1][b], group);
        set = _mm256_or_si256(
            set, _mm256_and_si256(
                     _mm256_castpd_si256(chosen),
                     _mm256_set1_epi64x(static_cast<int64_t>(bit))));
    }
    const __m256i o = _mm256_or_si256(
        _mm256_andnot_si256(
            _mm256_set1_epi64x(static_cast<int64_t>(clear)), w),
        set);
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(out), o);
}

void
selectRestrictedAvx2(const RestrictedPlan &plan, const double *select,
                     const double *cost, const uint8_t *stored,
                     const uint64_t *words, uint64_t *out)
{
    // col[t] lane s = select[s * 4 + t].
    __m256d col[4];
    transpose4(_mm256_loadu_pd(select), _mm256_loadu_pd(select + 4),
               _mm256_loadu_pd(select + 8),
               _mm256_loadu_pd(select + 12), col);
    // Two halves of four words.
    const std::size_t half = std::size_t{4} * plan.numBlocks * 4;
    selectRestrictedQuad(plan, col, cost, stored, words, out);
    selectRestrictedQuad(plan, col, cost + half, stored + 128,
                         words + 4, out + 4);
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

constexpr Ops avx2Ops = {byteDiffMaskAvx2,       mapSymbolsAvx2,
                         accumRows4Avx2,         accumRows8Avx2,
                         accumBlocks4Avx2,       mapBlocksAvx2,
                         scoreXorCandidatesAvx2, selectRestrictedAvx2,
                         crc32Pclmul};

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
