/**
 * @file
 * Execution backends for the experiment runner — where a grid's
 * replay work actually happens. The runner (runner.hh) owns
 * ordering, caching and progress; a backend owns nothing but
 * execution, so every backend produces byte-identical results for
 * the same spec list:
 *
 *  - SerialBackend   runs every (spec, shard) inline on the calling
 *                    thread — the reference implementation;
 *  - ThreadBackend   one thread-pool task per (spec, shard), the
 *                    historical (and default) in-process engine;
 *  - RemoteBackend   (runner/remote.hh) the one out-of-process
 *                    path: grid points go to wlcrc_worker processes,
 *                    spawned on loopback or run by a cluster. A
 *                    worker that crashes costs the head nothing; a
 *                    spawned fleet that dies fails the remaining
 *                    points in-band.
 *
 * Determinism: a backend only ever changes *where* shards execute.
 * Shard seeds come from the spec (shardSeed), shard merges happen
 * in fixed shard order, and results come back in spec order, so
 * serial, thread and remote execution of the same grid are
 * byte-identical — tests/backend_test.cc,
 * tests/remote_backend_test.cc and the golden bench suite enforce it.
 */

#ifndef WLCRC_RUNNER_BACKEND_HH
#define WLCRC_RUNNER_BACKEND_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "runner/experiment.hh"

namespace wlcrc::runner
{

/** Executes spec lists; stateless apart from configuration. */
class ExecutionBackend
{
  public:
    virtual ~ExecutionBackend() = default;

    /** Stable identifier: "serial", "thread", "remote". */
    virtual const char *name() const = 0;

    /**
     * Progress units run() will report — one taskDone() call each.
     * Defaults to the total shard count (in-process backends).
     */
    virtual std::size_t
    taskCount(const std::vector<ExperimentSpec> &specs) const;

    /**
     * Execute every spec; one result per spec, in spec order. A
     * failing spec yields ok = false with the error — never an
     * exception. @p taskDone (may be null) is invoked once per
     * progress unit, possibly from worker threads.
     */
    virtual std::vector<ExperimentResult>
    run(const std::vector<ExperimentSpec> &specs, unsigned jobs,
        const std::function<void()> &taskDone) const = 0;
};

/** Inline execution on the calling thread. */
class SerialBackend final : public ExecutionBackend
{
  public:
    const char *name() const override { return "serial"; }
    std::vector<ExperimentResult>
    run(const std::vector<ExperimentSpec> &specs, unsigned jobs,
        const std::function<void()> &taskDone) const override;
};

/** Thread-pooled execution, one task per (spec, shard). */
class ThreadBackend final : public ExecutionBackend
{
  public:
    const char *name() const override { return "thread"; }
    std::vector<ExperimentResult>
    run(const std::vector<ExperimentSpec> &specs, unsigned jobs,
        const std::function<void()> &taskDone) const override;
};

/**
 * Execute one spec on the calling thread: shards in shard order,
 * merged into one result. The unit every backend is built from —
 * also what a remote worker runs for each point it pulls.
 */
ExperimentResult runSpecSerial(const ExperimentSpec &spec);

/** Shard count @p spec actually executes with (custom replay = 1). */
unsigned effectiveShards(const ExperimentSpec &spec);

/**
 * Backend by CLI/env name: "serial", "thread" or "remote". Remote
 * requires @p workerBinary (wlcrc_worker): it spawns one worker per
 * job locally at the first run and listens on an ephemeral loopback
 * port; see runner/remote.hh for externally managed clusters.
 * @throws std::invalid_argument on unknown names or a missing
 *         worker binary.
 */
std::shared_ptr<const ExecutionBackend>
makeBackend(const std::string &name,
            const std::string &workerBinary = {});

} // namespace wlcrc::runner

#endif // WLCRC_RUNNER_BACKEND_HH
