/**
 * @file
 * Configuration records of the wear-leveling subsystem.
 *
 * Both records travel inside ExperimentSpec, so they need a compact,
 * canonical text form for the spec codec (remote-worker specs and
 * cache keys): format*() emits it, parse*() accepts it
 * plus the abbreviated forms the CLI flags take. Defaults are chosen
 * so a default-constructed record means "feature off" and the spec
 * codec can omit the key entirely, keeping existing canonical specs
 * (and their cache hashes) byte-identical.
 */

#ifndef WLCRC_WEARLEVEL_CONFIG_HH
#define WLCRC_WEARLEVEL_CONFIG_HH

#include <cstdint>
#include <string>

namespace wlcrc::wearlevel
{

/**
 * Which remapping scheme sits between the replayer and the device,
 * and its knobs. `scheme` is one of:
 *  - "none"        identity mapping (byte-identical to no leveler);
 *  - "start-gap"   rotating gap line per region (Qureshi-style):
 *                  every `period` writes to a region, the gap slot
 *                  advances by one line copy;
 *  - "page-remap"  write-histogram-driven hot/cold page swap: every
 *                  `period` writes, the hottest logical page swaps
 *                  physical location with the occupant of the
 *                  least-written physical page.
 */
struct LevelerConfig
{
    std::string scheme = "none";
    uint64_t period = 100;    //!< writes between leveling actions
    unsigned regionLines = 64; //!< start-gap: logical lines/region
    unsigned pageLines = 8;    //!< page-remap: lines per page

    bool active() const { return scheme != "none"; }
    bool operator==(const LevelerConfig &o) const = default;
};

/**
 * Per-cell endurance budgets and failure criteria of a lifetime
 * replay. `meanWrites == 0` disables endurance modelling entirely.
 * Budgets vary deterministically around the mean: cell (line, c)
 * gets max(1, round(mean * (1 + cov * z))) writes, with z a hash-
 * derived standard-normal deviate (clamped to ±3) of (line, c,
 * seed) — no RNG state, so budgets are identical however the replay
 * is scheduled or resumed.
 *
 * Failure criteria: a line dies when more than `eccDeadCells` of its
 * cells have exhausted their budget (0 = first-cell failure); the
 * device dies with its first dead line. `maxWrites` caps the demand
 * writes of a loop-to-failure replay (0 = the engine's default cap).
 */
struct EnduranceConfig
{
    uint64_t meanWrites = 0;  //!< mean per-cell budget; 0 = off
    double cov = 0.0;         //!< budget coefficient of variation
    unsigned eccDeadCells = 0; //!< dead cells tolerated per line
    uint64_t maxWrites = 0;   //!< demand-write cap; 0 = default

    bool active() const { return meanWrites != 0; }
    bool operator==(const EnduranceConfig &o) const = default;
};

/**
 * Canonical text form, e.g. "none", "start-gap:p100:r64",
 * "page-remap:p100:g8". Stable: equal configs format equally, so
 * the form is safe inside cache keys.
 */
std::string formatLeveler(const LevelerConfig &config);

/**
 * Parse formatLeveler() output or a CLI abbreviation: a bare scheme
 * name takes every default; tokens "p<N>" (period), "r<N>" (region
 * lines) and "g<N>" (page lines) may follow in any order.
 * @throws std::invalid_argument on unknown schemes or tokens.
 */
LevelerConfig parseLeveler(const std::string &text);

/** Canonical text form "mean:cov:ecc:cap", e.g. "1000:0.1:0:0". */
std::string formatEndurance(const EnduranceConfig &config);

/**
 * Parse formatEndurance() output or the CLI abbreviation
 * "mean[:cov[:ecc[:cap]]]" (missing positions keep their defaults).
 * @throws std::invalid_argument on malformed numbers.
 */
EnduranceConfig parseEndurance(const std::string &text);

} // namespace wlcrc::wearlevel

#endif // WLCRC_WEARLEVEL_CONFIG_HH
