#include "simd.hh"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <stdexcept>

namespace wlcrc::simd
{

namespace
{

// ------------------------------------------------- scalar reference

void
scalarByteDiffMask(const uint8_t *a, const uint8_t *b, unsigned n,
                   uint64_t *mask)
{
    const unsigned nw = (n + 63) / 64;
    for (unsigned w = 0; w < nw; ++w) {
        const unsigned base = w * 64;
        const unsigned lim = n - base < 64 ? n - base : 64;
        uint64_t m = 0;
        for (unsigned i = 0; i < lim; ++i)
            m |= uint64_t{a[base + i] != b[base + i]} << i;
        mask[w] = m;
    }
}

void
scalarMapSymbols(uint64_t word, const uint8_t *map4, unsigned lo,
                 unsigned hi, uint8_t *out)
{
    for (unsigned c = lo; c <= hi; ++c)
        out[c] = map4[(word >> (2 * c)) & 3];
}

void
scalarAccumRows4(const double *rows, const uint8_t *stored,
                 uint64_t word, unsigned lo, unsigned hi, double *acc)
{
    for (unsigned c = lo; c <= hi; ++c) {
        const unsigned sym =
            static_cast<unsigned>((word >> (2 * c)) & 3);
        const double *row = rows + (stored[c] * 4u + sym) * 4u;
        for (unsigned m = 0; m < 4; ++m)
            acc[m] += row[m];
    }
}

void
scalarAccumRows8(const double *rows, const uint8_t *stored,
                 uint64_t word, unsigned lo, unsigned hi, double *acc)
{
    for (unsigned c = lo; c <= hi; ++c) {
        const unsigned sym =
            static_cast<unsigned>((word >> (2 * c)) & 3);
        const double *row = rows + (stored[c] * 4u + sym) * 8u;
        for (unsigned m = 0; m < 8; ++m)
            acc[m] += row[m];
    }
}

void
scalarAccumBlocks4(const double *rows, const uint8_t *stored,
                   uint64_t word, const uint8_t *lo,
                   const uint8_t *hi, unsigned nblocks, double *acc)
{
    for (unsigned b = 0; b < nblocks; ++b)
        scalarAccumRows4(rows, stored, word, lo[b], hi[b],
                         acc + 4 * b);
}

void
scalarMapBlocks(uint64_t word, const uint8_t *const *tables,
                const uint8_t *lo, const uint8_t *hi,
                unsigned nblocks, uint8_t *out)
{
    for (unsigned b = 0; b < nblocks; ++b)
        scalarMapSymbols(word, tables[b], lo[b], hi[b], out);
}

/**
 * Slicing-by-16 tables: crcTables[0] is the classic bytewise table,
 * and crcTables[k][i] is the CRC state after byte i followed by k
 * zero bytes, so one step folds 16 input bytes with 16 lookups.
 */
using CrcTables = std::array<std::array<uint32_t, 256>, 16>;

constexpr CrcTables
makeCrcTables()
{
    CrcTables t{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int bit = 0; bit < 8; ++bit)
            c = (c >> 1) ^ ((c & 1) ? 0xedb88320u : 0u);
        t[0][i] = c;
    }
    for (unsigned k = 1; k < 16; ++k)
        for (unsigned i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    return t;
}

constexpr CrcTables crcTables = makeCrcTables();

constexpr Ops scalarOps = {scalarByteDiffMask, scalarMapSymbols,
                           scalarAccumRows4, scalarAccumRows8,
                           scalarAccumBlocks4, scalarMapBlocks,
                           detail::scalarScoreXorCandidates,
                           detail::scalarSelectRestricted,
                           detail::scalarCrc32};

/** The avx2 table needs AVX2, and PCLMULQDQ for its crc32 kernel. */
bool
cpuHasAvx2()
{
#if defined(__x86_64__) || defined(_M_X64)
    return __builtin_cpu_supports("avx2") &&
           __builtin_cpu_supports("pclmul");
#else
    return false;
#endif
}

} // namespace

// Defined in simd_avx2.cc / simd_neon.cc; null when the translation
// unit was built without the matching instruction set.
const Ops *avx2OpsOrNull();
const Ops *neonOpsOrNull();

const char *
kernelName(Kernel k)
{
    switch (k) {
    case Kernel::Scalar:
        return "scalar";
    case Kernel::Avx2:
        return "avx2";
    case Kernel::Neon:
        return "neon";
    }
    return "?";
}

bool
kernelAvailable(Kernel k)
{
    switch (k) {
    case Kernel::Scalar:
        return true;
    case Kernel::Avx2:
        return avx2OpsOrNull() != nullptr && cpuHasAvx2();
    case Kernel::Neon:
        return neonOpsOrNull() != nullptr;
    }
    return false;
}

Kernel
bestKernel()
{
    if (kernelAvailable(Kernel::Avx2))
        return Kernel::Avx2;
    if (kernelAvailable(Kernel::Neon))
        return Kernel::Neon;
    return Kernel::Scalar;
}

Kernel
parseKernel(const std::string &text)
{
    if (text == "auto")
        return bestKernel();
    if (text == "scalar")
        return Kernel::Scalar;
    if (text == "avx2")
        return Kernel::Avx2;
    if (text == "neon")
        return Kernel::Neon;
    throw std::invalid_argument(
        "unknown SIMD kernel '" + text +
        "' (expected auto|scalar|avx2|neon)");
}

const Ops &
opsFor(Kernel k)
{
    if (!kernelAvailable(k)) {
        throw std::invalid_argument(
            std::string("SIMD kernel '") + kernelName(k) +
            "' is not available on this machine");
    }
    switch (k) {
    case Kernel::Avx2:
        return *avx2OpsOrNull();
    case Kernel::Neon:
        return *neonOpsOrNull();
    default:
        return scalarOps;
    }
}

namespace detail
{

void
scalarScoreXorCandidates(const double *rows, const uint8_t *stored,
                         const uint64_t *data, const uint8_t *masks,
                         unsigned ncells, double *acc)
{
    for (unsigned i = 0; i < ncells; ++i) {
        const unsigned sym =
            static_cast<unsigned>((data[i / 32] >> (2 * (i % 32))) & 3);
        const double *row = rows + stored[i] * 4u;
        const uint8_t *m = masks + i * xorCandidates;
        for (unsigned c = 0; c < xorCandidates; ++c)
            acc[c] += row[sym ^ m[c]];
    }
}

void
scalarSelectRestricted(const RestrictedPlan &plan, const double *select,
                       const double *cost, const uint8_t *stored,
                       const uint64_t *words, uint64_t *out)
{
    const unsigned nblocks = plan.numBlocks;
    for (unsigned w = 0; w < selectWords; ++w) {
        const uint64_t word = words[w];
        const uint8_t *cells = stored + 32 * w;
        const double *costE = cost + std::size_t{w} * nblocks * 4;
        double group_cost[2] = {};
        uint8_t pick[2][selectMaxBlocks] = {};
        for (unsigned g = 0; g < 2; ++g) {
            const unsigned alt = g + 1;
            double total = 0.0;

            // Pass 1: selector bits held in aux-only cells; two bits
            // sharing one cell are decided jointly. Best-so-far
            // tracking uses selects, not branches: the winner is
            // data-dependent.
            for (unsigned a = 0; a < plan.numAux; ++a) {
                const RestrictedPlan::Aux &ap = plan.aux[a];
                const double *arow = select + cells[ap.cell] * 4u;
                const uint8_t *atab = ap.map.data();
                const int hi = ap.hi;
                const int lo = ap.lo;
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
                    const unsigned s0 =
                        hi >= 0 ? lb_fix : (hb_fix << 1);
                    const unsigned s1 = hi >= 0 ? (1u << 1) | lb_fix
                                                : (hb_fix << 1) | 1u;
                    const double c0 = arow[atab[s0]] + costE[4 * bu];
                    const double c1 =
                        arow[atab[s1]] + costE[4 * bu + alt];
                    pick[g][bu] = static_cast<uint8_t>(c1 < c0);
                    total += std::min(c1, c0);
                } else {
                    total += arow[atab[(hb_fix << 1) | lb_fix]];
                }
            }

            // Pass 2: selector bits that share a data cell with a
            // host block, already decided; the host's candidate maps
            // the shared cell.
            for (unsigned sp = 0; sp < plan.numShared; ++sp) {
                const RestrictedPlan::Shared &sh = plan.shared[sp];
                const uint8_t *host_tab =
                    plan.cand[pick[g][sh.host] ? alt : 0].data();
                const unsigned data_bit =
                    static_cast<unsigned>((word >> (sh.pos - 1)) & 1);
                const double *srow = select + cells[sh.pos / 2] * 4u;
                const double c0 =
                    srow[host_tab[data_bit]] + costE[4 * sh.block];
                const double c1 = srow[host_tab[2 | data_bit]] +
                                  costE[4 * sh.block + alt];
                const bool t1 = c1 < c0;
                pick[g][sh.block] = static_cast<uint8_t>(t1);
                total += t1 ? c1 : c0;
            }
            group_cost[g] = total;
        }

        // Ties go to group 0.
        const unsigned group = group_cost[1] < group_cost[0] ? 1 : 0;
        uint64_t o = word;
        auto set_bit = [&o](unsigned pos, unsigned v) {
            o = (o & ~(uint64_t{1} << pos)) | (uint64_t(v & 1) << pos);
        };
        set_bit(plan.groupBitPos, group);
        for (unsigned b = 0; b < nblocks; ++b)
            set_bit(plan.blockBitPos[b], pick[group][b]);
        out[w] = o;
    }
}

uint32_t
scalarCrc32(const uint8_t *p, std::size_t len, uint32_t seed)
{
    const auto &t = crcTables;
    uint32_t c = ~seed;
    for (; len >= 16; p += 16, len -= 16) {
        // Bytes are read one at a time, so the result does not
        // depend on the host's byte order.
        c ^= uint32_t{p[0]} | uint32_t{p[1]} << 8 |
             uint32_t{p[2]} << 16 | uint32_t{p[3]} << 24;
        c = t[15][c & 0xff] ^ t[14][(c >> 8) & 0xff] ^
            t[13][(c >> 16) & 0xff] ^ t[12][c >> 24] ^
            t[11][p[4]] ^ t[10][p[5]] ^ t[9][p[6]] ^ t[8][p[7]] ^
            t[7][p[8]] ^ t[6][p[9]] ^ t[5][p[10]] ^ t[4][p[11]] ^
            t[3][p[12]] ^ t[2][p[13]] ^ t[1][p[14]] ^ t[0][p[15]];
    }
    for (; len; ++p, --len)
        c = t[0][(c ^ *p) & 0xff] ^ (c >> 8);
    return ~c;
}

std::atomic<const Ops *> activeOps{nullptr};

/** Kernel of the table in activeOps (valid once activeOps is set). */
std::atomic<Kernel> activeKind{Kernel::Scalar};

const Ops &
resolveActiveOps()
{
    // Lazy env resolution; racing threads resolve identically, so
    // the unsynchronised stores are benign.
    const char *env = std::getenv("WLCRC_SIMD");
    const Kernel k =
        parseKernel(env && *env ? env : std::string("auto"));
    const Ops &t = opsFor(k);
    activeKind.store(k, std::memory_order_relaxed);
    activeOps.store(&t, std::memory_order_release);
    return t;
}

} // namespace detail

void
setKernel(Kernel k)
{
    const Ops &t = opsFor(k); // validates availability
    detail::activeKind.store(k, std::memory_order_relaxed);
    detail::activeOps.store(&t, std::memory_order_release);
}

void
setKernelFromText(const std::string &text)
{
    setKernel(parseKernel(text));
}

Kernel
activeKernel()
{
    if (!detail::activeOps.load(std::memory_order_relaxed))
        detail::resolveActiveOps();
    return detail::activeKind.load(std::memory_order_relaxed);
}

} // namespace wlcrc::simd
