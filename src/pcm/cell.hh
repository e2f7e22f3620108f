/**
 * @file
 * MLC PCM cell states and associated per-state constants.
 *
 * Cells are 4-level: states S1..S4, ordered by the energy required to
 * program the cell into that state (paper Section III). S1 is reached
 * by a plain RESET; S2 by a SET pulse; S3/S4 by iterative partial SETs
 * under the 'single RESET + multiple SET' programming strategy.
 */

#ifndef WLCRC_PCM_CELL_HH
#define WLCRC_PCM_CELL_HH

#include <array>
#include <cstdint>

namespace wlcrc::pcm
{

/** The four programmable states of a 4-level MLC PCM cell. */
enum class State : uint8_t { S1 = 0, S2 = 1, S3 = 2, S4 = 3 };

/** Number of cell states. */
inline constexpr unsigned numStates = 4;

/** @return 0-based index of @p s. */
constexpr unsigned
stateIndex(State s)
{
    return static_cast<unsigned>(s);
}

/** @return state with 0-based index @p i (0..3). */
constexpr State
stateFromIndex(unsigned i)
{
    return static_cast<State>(i & 3);
}

/** Printable name ("S1".."S4"). */
const char *stateName(State s);

/**
 * Upper bound on stored cells per line across every codec layout:
 * 256 data cells plus up to two auxiliary cells per two-cell data
 * block (6cosets at the smallest legal granularity). Fixed-capacity
 * per-line buffers (TargetLine, CellMask) are sized by this so the
 * write hot path never touches the heap.
 */
inline constexpr unsigned maxLineCells = 768;

/**
 * Fixed-capacity per-cell flag set (one bit per cell of a stored
 * line). Replaces the std::vector<bool> masks of the write hot path:
 * resetting, testing and setting are all allocation-free.
 */
class CellMask
{
  public:
    CellMask() = default;

    /** Clear to @p n zero bits. */
    void
    reset(unsigned n)
    {
        size_ = n;
        bits_.fill(0);
    }

    unsigned size() const { return size_; }

    bool
    test(unsigned i) const
    {
        return (bits_[i >> 6] >> (i & 63)) & 1;
    }

    void
    set(unsigned i)
    {
        bits_[i >> 6] |= uint64_t{1} << (i & 63);
    }

    /** True iff any bit is set. */
    bool
    any() const
    {
        uint64_t acc = 0;
        for (unsigned w = 0; w < words(); ++w)
            acc |= bits_[w];
        return acc != 0;
    }

    /** Raw 64-bit chunk @p w, for word-at-a-time scans. */
    uint64_t word(unsigned w) const { return bits_[w]; }
    unsigned words() const { return (size_ + 63) / 64; }

    /**
     * Writable word storage for bulk mask producers (the SIMD
     * differential scan). Writers must fill all words() words and
     * keep bits at or past size() zero.
     */
    uint64_t *rawWords() { return bits_.data(); }

  private:
    std::array<uint64_t, maxLineCells / 64> bits_{};
    uint32_t size_ = 0;
};

} // namespace wlcrc::pcm

#endif // WLCRC_PCM_CELL_HH
