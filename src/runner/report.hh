/**
 * @file
 * Result reporters for the experiment runner: one row/object per
 * grid point, to CSV (via common/csv, for spreadsheets and the
 * paper's tables) or JSON (for downstream tooling). Reporters are
 * deterministic formatters — rows come out in spec order with fixed
 * columns, so reports are byte-comparable across runs and job
 * counts.
 */

#ifndef WLCRC_RUNNER_REPORT_HH
#define WLCRC_RUNNER_REPORT_HH

#include <ostream>
#include <vector>

#include "runner/experiment.hh"

namespace wlcrc::runner
{

struct JsonValue;

/**
 * Version stamped into every JSON result object
 * (`"report_version"`). Bump it whenever the meaning or encoding of
 * a result field changes: the result cache and the worker protocol
 * refuse objects from another version, so results produced by an
 * older binary are re-replayed instead of silently merged
 * (docs/caching.md).
 */
inline constexpr int kReportVersion = 1;

/** Streams a batch of experiment results in some format. */
class Reporter
{
  public:
    virtual ~Reporter() = default;

    virtual void
    write(std::ostream &os,
          const std::vector<ExperimentResult> &results) const = 0;
};

/**
 * CSV report: grid coordinates, then the paper's metrics. Failed
 * grid points appear with an "error" status column so a sweep's
 * output always has one row per requested point.
 */
class CsvReporter : public Reporter
{
  public:
    void write(std::ostream &os,
               const std::vector<ExperimentResult> &results)
        const override;
};

/** JSON report: an array of result objects, same fields as CSV. */
class JsonReporter : public Reporter
{
  public:
    void write(std::ostream &os,
               const std::vector<ExperimentResult> &results)
        const override;
};

/**
 * Stream one result as the JSON object the reporters, the worker
 * protocol and the result cache all share. Doubles are printed
 * shortest-round-trip, and the raw counters (writes,
 * compressed_writes, vnr_iterations; vnr_capped only when non-zero,
 * read back as 0 when absent) and all nine per-write stat
 * means are included, so readResultObject() reconstructs a result
 * whose CSV/JSON rows are byte-identical to the original's.
 */
void writeResultObject(std::ostream &os, const ExperimentResult &r);

/**
 * Rebuild an ExperimentResult from writeResultObject() output.
 * @p spec supplies the grid coordinates (the caller always knows
 * the spec it asked about — the object's own coordinate fields are
 * informational).
 * @throws std::runtime_error on missing fields, type mismatches, or
 *         a report_version other than kReportVersion.
 */
ExperimentResult readResultObject(const JsonValue &obj,
                                  ExperimentSpec spec);

/** Minimal JSON string escaping (quotes, backslashes, control). */
std::string jsonEscape(const std::string &s);

} // namespace wlcrc::runner

#endif // WLCRC_RUNNER_REPORT_HH
