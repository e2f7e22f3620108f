/**
 * @file
 * Serial reference of the device write path.
 *
 * DisturbanceModel::sample and WriteUnit::program run branch-free
 * (batched rng draws, popcount accounting, per-state energy sums).
 * The functions here are the cell-by-cell formulation they replaced,
 * kept verbatim: one rng draw per exposure in ascending cell order,
 * one energy add per programmed cell in ascending cell order. The
 * simulator never calls them. tests/device_program_equivalence_test.cc
 * and the `program` stage of wlcrc_fuzz require the fast path to
 * match them bit for bit: the same WriteStats bytes, stored cells,
 * disturbed masks and rng state. The diff helpers below are that
 * comparison, shared by both.
 */

#ifndef WLCRC_PCM_PROGRAM_REFERENCE_HH
#define WLCRC_PCM_PROGRAM_REFERENCE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "pcm/cell.hh"
#include "pcm/disturbance.hh"
#include "pcm/energy_model.hh"
#include "pcm/write_unit.hh"

namespace wlcrc::pcm::reference
{

/** Cell-by-cell DisturbanceModel::sample (same contract). */
unsigned sample(const DisturbanceModel &model, const State *cells,
                std::size_t n, const CellMask &updated, Rng &rng,
                CellMask *disturbed = nullptr);

/**
 * Cell-by-cell differential write: program differing cells in
 * ascending order, charging energy and update counts to data or aux.
 */
void applyDifferential(std::vector<State> &stored,
                       const TargetLine &target,
                       const EnergyModel &energy, WriteStats &st,
                       CellMask &updated);

/** Cell-by-cell WriteUnit::program (same contract). */
WriteStats program(const EnergyModel &energy,
                   const DisturbanceModel &disturb,
                   std::vector<State> &stored, const TargetLine &target,
                   Rng &rng, bool verify_n_restore = false,
                   CellMask *updated = nullptr);

/**
 * Fill @p stored and @p target with a random @p n-cell case: random
 * states, a random share of differing cells (from none to all) and a
 * random aux layout (none, a trailing region, embedded cells, both).
 */
void randomCase(Rng &rng, unsigned n, std::vector<State> &stored,
                TargetLine &target);

/**
 * Run @p unit.program and reference::program on copies of @p stored
 * from rngs seeded with @p seed.
 * @return "" when the WriteStats bytes, the stored cells, the update
 *         masks and the next rng draw all match, else a description
 *         of the first difference.
 */
std::string diffProgram(const WriteUnit &unit,
                        const std::vector<State> &stored,
                        const TargetLine &target, uint64_t seed,
                        bool verify_n_restore);

/**
 * Run @p model.sample and reference::sample from rngs seeded with
 * @p seed. @return "" when the error counts, disturbed masks and the
 * next rng draw match, else a description of the first difference.
 */
std::string diffSample(const DisturbanceModel &model,
                       const std::vector<State> &cells,
                       const CellMask &updated, uint64_t seed);

} // namespace wlcrc::pcm::reference

#endif // WLCRC_PCM_PROGRAM_REFERENCE_HH
