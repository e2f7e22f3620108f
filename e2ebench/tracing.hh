/**
 * @file
 * Benchmark-side tracing: decorators around the simulator's public
 * seams that record, per shard task, where host time went.
 *
 * Nothing here reaches inside the replay loop. A traced spec gets
 *  - a codec factory that wraps the stock codec in TracedCodec
 *    (encodeBatch = coset batch span, encodeInto = first-touch
 *    prime span under Replayer::runBatch), and
 *  - a TracedSource whose cursors time open() and next() and report
 *    blocksVisited() (tracefile spans).
 * The runner calls the codec factory at the start of every shard
 * task and the ProgressFn right after it, on the same worker thread,
 * so (factory call, progress callback) bracket the shard's span.
 * Shard time not covered by child spans is the device model plus
 * the replayer loop: the `pcm` self time.
 *
 * Backends that run whole points out of process (remote) never call
 * the factory; there, consecutive progress callbacks on one
 * connection thread delimit that connection's tasks.
 */

#ifndef WLCRC_E2EBENCH_TRACING_HH
#define WLCRC_E2EBENCH_TRACING_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runner/experiment.hh"
#include "runner/runner.hh"
#include "tracefile/source.hh"

namespace e2e
{

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point a, Clock::time_point b);

/** What one shard task did, seen through the decorators. */
struct ShardSpan
{
    std::string point; //!< ExperimentSpec::label() of the task's point
    std::thread::id thread;
    Clock::time_point start{};
    Clock::time_point end{};
    bool closed = false;

    // coset: LineCodec::encodeBatch / encodeInto
    uint64_t batchCalls = 0;
    uint64_t batchLines = 0;
    double batchSec = 0;
    uint64_t primeCalls = 0;
    double primeSec = 0;

    // tracefile: TransactionSource::open / TraceCursor::next
    double openSec = 0;
    double nextSec = 0;
    uint64_t cursorRecords = 0;
    uint64_t blocksVisited = 0;

    double seconds() const { return secondsBetween(start, end); }
    double childSeconds() const
    {
        return batchSec + primeSec + openSec + nextSec;
    }
};

/**
 * Collects shard spans and task timings of runner::ExperimentRunner
 * runs. One tracer may observe several runs; reset() clears it.
 * decorate() and progress() hand out closures that refer to this
 * tracer, so it must outlive every run they are used in.
 */
class Tracer
{
  public:
    Tracer() = default;
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** @p spec with its codec and source wrapped by decorators. */
    wlcrc::runner::ExperimentSpec
    decorate(const wlcrc::runner::ExperimentSpec &spec);

    /** Progress callback that closes shard spans / task chains. */
    wlcrc::runner::ProgressFn progress();

    /** Mark the start and the return of ExperimentRunner::run(). */
    void runStarted();
    void runReturned();

    void reset();

    /** Closed shard spans (in-process backends), completion order. */
    std::vector<ShardSpan> spans() const;
    /** Every task's duration, whatever the backend. */
    std::vector<double> taskSeconds() const;
    /** Last task end -> run() return. */
    double tailSeconds() const;
    /** run() call -> run() return. */
    double runSeconds() const;

  private:
    ShardSpan &openSpan(const std::string &point);

    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<ShardSpan>> spans_;
    std::vector<double> tasks_;
    std::map<std::thread::id, Clock::time_point> lastEnd_;
    Clock::time_point runStart_{};
    Clock::time_point runEnd_{};
    Clock::time_point lastTaskEnd_{};
};

} // namespace e2e

#endif // WLCRC_E2EBENCH_TRACING_HH
