/**
 * @file
 * Per-cell wear tracking and lifetime projection.
 *
 * PCM endurance is bounded by per-cell write counts (the paper uses
 * "updated cells per write" as its endurance proxy; this module adds
 * the cell-level view a memory vendor would track). A WearTracker
 * records how many RESET programs each cell of each line received
 * and projects device lifetime under a cell endurance budget.
 */

#ifndef WLCRC_PCM_WEAR_HH
#define WLCRC_PCM_WEAR_HH

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "pcm/cell.hh"

namespace wlcrc::pcm
{

/** Wear summary across all tracked lines. */
struct WearSummary
{
    uint64_t maxCellWrites = 0;   //!< most-worn cell
    double avgCellWrites = 0.0;   //!< mean over touched cells
    uint64_t touchedCells = 0;    //!< cells written at least once
    uint64_t totalWrites = 0;     //!< total cell programs
    /** Coefficient of variation (stddev/mean) over touched cells:
     *  0.0 = perfectly even wear across every written cell. */
    double covCellWrites = 0.0;
    /** Ratio max/avg: 1.0 = perfectly even wear. */
    double imbalance() const;
};

/** Tracks per-cell program counts. */
class WearTracker
{
  public:
    explicit WearTracker(unsigned cells_per_line)
        : cellsPerLine_(cells_per_line)
    {}

    /** Record that cell @p cell of line @p addr was programmed. */
    void recordProgram(uint64_t addr, unsigned cell);

    /** Record a whole-line update mask. */
    void recordLine(uint64_t addr, const std::vector<bool> &updated);

    /** Mask variant used by the device's write path: one hash
     *  lookup per line, none for an empty mask. */
    void recordLine(uint64_t addr, const CellMask &updated);

    /**
     * Fold another tracker's per-cell counts into this one. Used to
     * combine the per-shard trackers of a sharded replay (shards
     * partition the address space, so maps are typically disjoint;
     * overlapping lines add cell-wise, so merged totals equal a
     * single-shard replay of the concatenated streams).
     *
     * @throws std::invalid_argument if the trackers' cellsPerLine
     *         differ, or if @p o is this tracker itself (a
     *         self-merge would silently double every count).
     */
    void merge(const WearTracker &o);

    /** Write count of one cell (0 if untouched). */
    uint64_t cellWrites(uint64_t addr, unsigned cell) const;

    /** Per-cell counts of one line, or nullptr if never written. */
    const std::vector<uint32_t> *lineWear(uint64_t addr) const;

    /** Aggregate wear statistics. */
    WearSummary summary() const;

    /**
     * Wear histogram: for each observed per-cell write count, the
     * number of touched cells with exactly that count. Ordered by
     * write count, so iterating it is deterministic (CSV export).
     */
    std::map<uint32_t, uint64_t> histogram() const;

    /** Number of distinct lines with at least one tracked write. */
    std::size_t trackedLines() const { return wear_.size(); }

    /**
     * Projected writes-to-first-cell-failure for a per-cell
     * endurance of @p cell_endurance programs, extrapolating the
     * observed wear distribution linearly.
     *
     * @return projected number of further line writes before the
     *         most-worn cell exceeds its endurance, or 0 if it
     *         already has.
     */
    uint64_t projectedLifetime(uint64_t cell_endurance,
                               uint64_t line_writes_so_far) const;

    unsigned cellsPerLine() const { return cellsPerLine_; }

  private:
    /** Counts of line @p addr, zero-filled on first touch. */
    std::vector<uint32_t> &lineCounts(uint64_t addr);

    unsigned cellsPerLine_;
    std::unordered_map<uint64_t, std::vector<uint32_t>> wear_;
};

} // namespace wlcrc::pcm

#endif // WLCRC_PCM_WEAR_HH
