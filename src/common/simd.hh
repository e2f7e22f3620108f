/**
 * @file
 * Runtime-dispatched SIMD kernels for the encode and trace-decode
 * hot paths.
 *
 * Three inner loops dominate LineCodec::encodeInto and the
 * differential write (see docs/simd.md):
 *  - the word-wise differential scan (which cells changed),
 *  - per-candidate symbol mapping (2-bit symbols -> cell states),
 *  - cost-row candidate scoring (per-cell 4/8-lane double adds, and
 *    16 XOR-mask candidates scored one lane each), and WLCRC's
 *    restricted-coset choice for a line's eight words, one lane
 *    per word.
 * A fourth dominates reading a trace container: the CRC-32 that
 * verifies every record block (wlcrc::crc32, common/crc32.hh).
 *
 * Each loop is exposed here as a kernel in an Ops table with three
 * implementations: a scalar reference (always compiled, always the
 * ground truth), AVX2 (x86-64) and NEON (aarch64). Every vector
 * implementation is required to be *bit-identical* to the scalar
 * one — the accumulation kernels perform per-lane adds in the same
 * cell order, so IEEE-754 sums match exactly and the golden CSVs do
 * not depend on the dispatch choice. tests/simd_equivalence_test.cc
 * and tests/encode_fuzz_test.cc enforce this.
 *
 * Dispatch: the active kernel resolves lazily from $WLCRC_SIMD
 * ("auto" | "scalar" | "avx2" | "neon", default auto = best
 * available), or programmatically via setKernel() (wlcrc_sim --simd).
 * Unknown names and unavailable kernels fail loudly.
 */

#ifndef WLCRC_COMMON_SIMD_HH
#define WLCRC_COMMON_SIMD_HH

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace wlcrc::simd
{

/** Kernel families, one per instruction set. */
enum class Kernel : uint8_t { Scalar = 0, Avx2 = 1, Neon = 2 };

/** Number of Kernel enumerators. */
inline constexpr unsigned numKernels = 3;

/** Words of one line: the lanes of Ops::selectRestricted. */
inline constexpr unsigned selectWords = 8;

/** Upper bound on the blocks of one restricted-coset word. */
inline constexpr unsigned selectMaxBlocks = 8;

/**
 * One WLCRC restricted-coset word layout, flattened for
 * Ops::selectRestricted. Candidate 0 is C1; group g (0 or 1) lets
 * every block choose between C1 and candidate g + 1. Mapping tables
 * take a 2-bit symbol to a state index.
 */
struct RestrictedPlan
{
    /** An aux-only cell and the owners of its high and low bit:
     *  -1 = the group bit, -2 = unused, else a block index. */
    struct Aux
    {
        uint8_t cell;
        int8_t hi;
        int8_t lo;
        std::array<uint8_t, 4> map; //!< the cell's symbol -> state
    };
    /** A block whose selector bit @c pos is the high bit of a data
     *  cell of block @c host, so host's candidate maps that cell. */
    struct Shared
    {
        uint8_t block;
        uint8_t host;
        uint8_t pos;
    };

    unsigned numBlocks = 0;
    unsigned numAux = 0;
    unsigned numShared = 0;
    unsigned groupBitPos = 0;
    std::array<uint8_t, selectMaxBlocks> blockBitPos{};
    std::array<Aux, 4> aux{};
    /** In decode order: every host is decided before its guest. */
    std::array<Shared, 4> shared{};
    /** Candidates C1, C2, C3. */
    std::array<std::array<uint8_t, 4>, 3> cand{};
};

/**
 * The kernel function table. All pointers are always valid; the
 * scalar table is the reference implementation and the vector tables
 * must match it bit-for-bit.
 */
struct Ops
{
    /**
     * Byte-difference mask: set bit i of @p mask (i < @p n) iff
     * a[i] != b[i]. Writes exactly (n + 63) / 64 words; bits past
     * @p n in the last word are zero.
     */
    void (*byteDiffMask)(const uint8_t *a, const uint8_t *b,
                         unsigned n, uint64_t *mask);

    /**
     * Symbol mapping over one 64-bit word: for each cell c in
     * [@p lo, @p hi] (0 <= lo <= hi <= 31),
     *   out[c] = map4[(word >> (2 * c)) & 3].
     * Cells outside the range are not written.
     */
    void (*mapSymbols)(uint64_t word, const uint8_t *map4,
                       unsigned lo, unsigned hi, uint8_t *out);

    /**
     * 4-lane cost-row accumulation over one 64-bit word: for each
     * cell c ascending in [@p lo, @p hi] (0 <= lo <= hi <= 31),
     *   acc[m] += rows[(stored[c] * 4 + sym(c)) * 4 + m]  (m = 0..3)
     * where sym(c) = (word >> (2 * c)) & 3 and @p rows is a
     * [4 states][4 symbols][4 lanes] table. Adds are per-lane in
     * cell order, so sums are bit-identical across kernels.
     */
    void (*accumRows4)(const double *rows, const uint8_t *stored,
                       uint64_t word, unsigned lo, unsigned hi,
                       double *acc);

    /** 8-lane variant of accumRows4 (row stride 8, for 6cosets). */
    void (*accumRows8)(const double *rows, const uint8_t *stored,
                       uint64_t word, unsigned lo, unsigned hi,
                       double *acc);

    /**
     * Fused multi-block accumRows4 over one word: equivalent to
     *   for (b = 0; b < nblocks; ++b)
     *       accumRows4(rows, stored, word, lo[b], hi[b], acc + 4 * b)
     * in that exact order, so per-block sums stay bit-identical.
     * Blocks must be ascending and disjoint; nblocks <= 8, and all
     * 32 bytes of @p stored must be readable (vector kernels decode
     * the whole word's cells up front, whatever the block ranges).
     * One call scores every block of a word — the per-block
     * accumulator chains are independent, which is where the vector
     * kernels win.
     */
    void (*accumBlocks4)(const double *rows, const uint8_t *stored,
                         uint64_t word, const uint8_t *lo,
                         const uint8_t *hi, unsigned nblocks,
                         double *acc);

    /**
     * Fused multi-block symbol mapping over one word: for each block
     * b and each cell c in [lo[b], hi[b]],
     *   out[c] = tables[b][(word >> (2 * c)) & 3].
     * Blocks must be ascending and disjoint, and their union must be
     * the contiguous cell range [lo[0], hi[nblocks - 1]]; exactly
     * that range is written. Equivalent to nblocks mapSymbols calls
     * with per-block tables.
     */
    void (*mapBlocks)(uint64_t word, const uint8_t *const *tables,
                      const uint8_t *lo, const uint8_t *hi,
                      unsigned nblocks, uint8_t *out);

    /**
     * XOR-mask candidate scoring, one lane per candidate: for each
     * cell i ascending in [0, @p ncells) and each lane c < 16,
     *   acc[c] += rows[stored[i] * 4 + (sym(i) ^ masks[i * 16 + c])]
     * where sym(i) = (data[i / 32] >> (2 * (i % 32))) & 3, @p rows is
     * a [4 states][4 symbols] cost table and masks[i * 16 + c] (0..3)
     * is candidate c's mask symbol at cell i. Per lane these are the
     * same adds in the same cell order as scoring one candidate at a
     * time, so the 16 sums are bit-identical across kernels.
     */
    void (*scoreXorCandidates)(const double *rows,
                               const uint8_t *stored,
                               const uint64_t *data,
                               const uint8_t *masks, unsigned ncells,
                               double *acc);

    /**
     * WLCRC restricted-coset selection for the selectWords words of
     * one line, one lane per word. Inputs:
     *  - @p select: the [stored state * 4 + target state] selection
     *    cost table;
     *  - @p cost: block costs, cost[(w * plan.numBlocks + b) * 4 + m]
     *    for word w, block b and candidate m (m = 3 is not read);
     *  - @p stored: the line's 256 stored cell states, word w's
     *    cells at stored[32 * w ..];
     *  - @p words: the data words.
     * Writes out[w] = words[w] with the group bit and every block's
     * selector bit set to word w's choice (bit 1 = the group's
     * alternative candidate). Per word and group g, with
     * alt = g + 1 and row = select + 4 * (stored state of the cell):
     *  - pass 1, per aux cell in plan order: with both bits owned by
     *    blocks, c_xy = (row[map[2x + y]] + cost[hi][x ? alt : 0])
     *    + cost[lo][y ? alt : 0], taken in the order 00, 01, 10, 11
     *    with strict-< first-wins ties; with one block bit, its two
     *    choices c_x = row[map[sym_x]] + cost[b][x ? alt : 0]
     *    (strict-<, c_0 on ties), the other bit being g if it is the
     *    group bit and 0 if unused; with none, the fixed symbol's
     *    row entry. The winner's cost is added to the group total,
     *    which starts at 0.0;
     *  - pass 2, per shared plan in order: c_x = row[cand[h][2x +
     *    data bit]] + cost[block][x ? alt : 0], where h is the
     *    host's chosen candidate; strict-<, c_0 on ties;
     *  - group 1 wins iff total_1 < total_0.
     * Vector kernels compute the same doubles in the same order per
     * lane, so every kernel makes the same choices.
     */
    void (*selectRestricted)(const RestrictedPlan &plan,
                             const double *select, const double *cost,
                             const uint8_t *stored,
                             const uint64_t *words, uint64_t *out);

    /**
     * CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of
     * @p data[0..len), continuing from @p seed, the checksum of the
     * bytes before it (0 starts a new message): the wlcrc::crc32()
     * contract. Any alignment and length, including 0.
     */
    uint32_t (*crc32)(const uint8_t *data, std::size_t len,
                      uint32_t seed);
};

/** Display name ("scalar", "avx2", "neon"). */
const char *kernelName(Kernel k);

/** True iff @p k is compiled in and supported by this CPU. */
bool kernelAvailable(Kernel k);

/** The fastest available kernel (what "auto" resolves to). */
Kernel bestKernel();

/**
 * Parse "auto" / "scalar" / "avx2" / "neon" into the kernel it
 * selects ("auto" resolves to bestKernel()).
 * @throws std::invalid_argument for unknown names: a typo'd knob
 *         must fail the run loudly, not fall back silently.
 */
Kernel parseKernel(const std::string &text);

/**
 * Force the active kernel.
 * @throws std::invalid_argument if @p k is unavailable here.
 */
void setKernel(Kernel k);

/** parseKernel + setKernel in one call (CLI --simd plumbing). */
void setKernelFromText(const std::string &text);

/**
 * The active kernel: the last setKernel() choice, else $WLCRC_SIMD,
 * else bestKernel(). Resolved once and cached.
 */
Kernel activeKernel();

/** Ops table of a specific kernel (tests drive kernels directly).
 *  @throws std::invalid_argument if unavailable. */
const Ops &opsFor(Kernel k);

/** Lanes of Ops::scoreXorCandidates. */
inline constexpr unsigned xorCandidates = 16;

namespace detail
{
/** The scalar scoreXorCandidates kernel (the neon table's entry). */
void scalarScoreXorCandidates(const double *rows,
                              const uint8_t *stored,
                              const uint64_t *data,
                              const uint8_t *masks, unsigned ncells,
                              double *acc);

/** The scalar selectRestricted kernel (the neon table's entry,
 *  and the codecs' scoring-hook path). */
void scalarSelectRestricted(const RestrictedPlan &plan,
                            const double *select, const double *cost,
                            const uint8_t *stored,
                            const uint64_t *words, uint64_t *out);

/** The scalar crc32 kernel; vector kernels finish short buffers and
 *  tails with it. */
uint32_t scalarCrc32(const uint8_t *data, std::size_t len,
                     uint32_t seed);

/** Active table; null until first resolution. */
extern std::atomic<const Ops *> activeOps;
const Ops &resolveActiveOps();
} // namespace detail

/** Ops table of activeKernel() — the hot-path entry point. */
inline const Ops &
ops()
{
    const Ops *t = detail::activeOps.load(std::memory_order_relaxed);
    return t ? *t : detail::resolveActiveOps();
}

} // namespace wlcrc::simd

#endif // WLCRC_COMMON_SIMD_HH
