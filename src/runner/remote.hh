/**
 * @file
 * Distributed sweep execution: a head node serves a work queue of
 * grid points over TCP, worker processes (tools/wlcrc_worker) pull
 * points, replay them through the stock in-process path and return
 * the versioned JSON report. The same connection doubles as a
 * shared result-cache transport, so a cluster-wide rerun replays
 * only novel points (docs/distributed.md).
 *
 * Wire protocol "WRK1", framed by net/frame.hh (the same 12-byte
 * little-endian header as the live service's "WSV1"):
 *
 *   worker → head
 *     Hello     u32 protocolVersion (= 1); must be first
 *     Pull      empty — request one point
 *     Result    u64 pointId, then the writeResultObject() JSON text
 *   head → worker
 *     Work      u64 pointId, then the canonicalSpec() text
 *     Retry     empty — nothing pending now, poll again
 *     Fin       empty — head is shutting down, exit the loop
 *   cache, either direction of request (any client may use them)
 *     CacheGet  16-byte entry hash (lowercase hex)
 *     CacheHit  the entry text              (reply to CacheGet)
 *     CacheMiss empty                       (reply to CacheGet)
 *     CachePut  16-byte entry hash, then the entry text
 *     PutAck    empty                       (reply to CachePut)
 *   either
 *     Error     ASCII error name, best-effort before a close
 *
 * Fault model — the part the fault-injection suite pins down:
 *
 *  - A worker that dies mid-point (SIGKILL, crash, network drop)
 *    surfaces as a disconnect; its issued points go back on the
 *    queue and another worker replays them ("worker-died").
 *  - A worker that hangs past the reissue deadline keeps its
 *    connection, but the point is reissued to the next Pull
 *    ("reissued"); whichever result arrives first wins and the
 *    loser is dropped ("duplicate-result"). Results are
 *    deterministic, so first-wins cannot change bytes.
 *  - A well-formed Result with ok=false is authoritative: the point
 *    failed in the replay path and is NOT retried — the same
 *    in-band failure the serial and thread backends report.
 *  - A head that spawned its workers and has outlived all of them
 *    (none running, no connection open) fails every unfinished
 *    point in-band ("no-live-worker") rather than waiting for a
 *    worker that cannot come. A head with no spawned workers
 *    serves an external cluster and keeps waiting.
 *  - A malformed frame or Result never takes the head down: named
 *    error count, best-effort Error frame, connection closed,
 *    issued points requeued.
 *
 * Determinism: like every backend, RemoteBackend only relocates
 * work. Workers run runSpecSerial() on a parseSpec() round-trip of
 * the head's canonicalSpec() text — the identical computation the
 * serial backend performs in-process — and results return through
 * the writeResultObject()/readResultObject() codec that also backs
 * `wlcrc_sim --json`, so serial/thread/remote are byte-identical
 * (tests/remote_backend_test.cc enforces the full feature matrix).
 */

#ifndef WLCRC_RUNNER_REMOTE_HH
#define WLCRC_RUNNER_REMOTE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "runner/backend.hh"
#include "runner/result_cache.hh"

namespace wlcrc::runner
{

/** Frame magic: the bytes 'W','R','K','1' on the wire. */
inline constexpr uint32_t workMagic = 0x314B5257;
/** Protocol generation carried in Hello. */
inline constexpr uint32_t workProtocolVersion = 1;
/** Upper bound on payloadBytes; larger frames are rejected. */
inline constexpr uint32_t maxWorkPayload = 1u << 20;

/** WRK1 frame types (header `type`). */
enum class WorkFrame : uint8_t
{
    Hello = 1,
    Pull = 2,
    Work = 3,
    Retry = 4,
    Fin = 5,
    Result = 6,
    CacheGet = 7,
    CacheHit = 8,
    CacheMiss = 9,
    CachePut = 10,
    PutAck = 11,
    Error = 12,
};

/** Head-node configuration. */
struct RemoteBackendOptions
{
    /** Listen port on 127.0.0.1; 0 picks an ephemeral port. */
    uint16_t port = 0;
    /**
     * wlcrc_worker executable to spawn locally at the first run();
     * empty = spawn nothing and rely on externally started workers
     * connecting to port().
     */
    std::string workerBinary;
    /**
     * Local workers to spawn when workerBinary is set; 0 = the
     * run's job count (max 1).
     */
    unsigned spawnWorkers = 0;
    /**
     * Straggler deadline: an issued point unanswered for this long
     * is put back on the queue for another worker. Generous by
     * default — reissue is for hung workers, not slow points.
     */
    double reissueSec = 30.0;
    /**
     * When set, the head serves this store to CacheGet/CachePut
     * clients — the cluster-shared result cache.
     */
    std::shared_ptr<CacheStore> serveCache;
};

/**
 * Head-node backend: serves the spec list as a pull-based work
 * queue on a loopback TCP port. The listener starts in the
 * constructor (so port() is immediately valid), persists across
 * run() calls, and closes on stop()/destruction — which also sends
 * Fin to connected workers and reaps any spawned ones.
 *
 * Specs that cannot cross a process boundary (closure hooks,
 * in-memory sources) transparently run inline on the calling
 * thread, so a mixed grid still completes.
 */
class RemoteBackend final : public ExecutionBackend
{
  public:
    /** Binds and starts listening. @throws on bind failure. */
    explicit RemoteBackend(RemoteBackendOptions opts);
    ~RemoteBackend() override;

    const char *name() const override { return "remote"; }
    /** One progress unit per grid point (worker = whole spec). */
    std::size_t
    taskCount(const std::vector<ExperimentSpec> &specs) const
        override;
    std::vector<ExperimentResult>
    run(const std::vector<ExperimentSpec> &specs, unsigned jobs,
        const std::function<void()> &taskDone) const override;

    /** Bound listen port (valid from construction). */
    uint16_t port() const;

    /**
     * Shut down: Fin to connected workers, close the listener and
     * all connections, reap spawned workers (SIGKILL after a short
     * grace; workers a run already reaped are not waited on
     * again). Idempotent; the destructor calls it.
     */
    void stop();

    /**
     * Named fault counters accumulated since construction:
     * "worker-died", "reissued", "duplicate-result",
     * "malformed-result", "worker-reported-error", "bad-hello",
     * "bad-magic", "bad-frame-type", "oversized-frame",
     * "truncated-frame", "bad-cache-hash", "cache-put-failed",
     * "no-live-worker" (one per point failed because the spawned
     * fleet died).
     * Absent key = zero (docs/distributed.md tabulates them).
     */
    std::map<std::string, uint64_t> errorCounts() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/** One worker connection loop's configuration. */
struct WorkerOptions
{
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    /** Sleep between Retry polls (head idle), milliseconds. */
    int pollMs = 50;
    /** Fault injection: raise(SIGKILL) on receiving the Nth Work. */
    int killAfter = -1;
    /** Fault injection: hang (never answer) the Nth Work. */
    int hangAfter = -1;
};

/** What one worker loop did before the head said Fin. */
struct WorkerStats
{
    uint64_t pointsRun = 0; //!< Work frames answered with a Result
    uint64_t failures = 0;  //!< of which carried ok = false
};

/**
 * Connect to a head node and serve its queue until Fin (or the
 * head vanishes). Replays each point with runSpecSerial() on the
 * parsed spec; a spec that fails to parse or replay returns an
 * in-band ok=false Result. Never writes to stdout.
 * @throws std::runtime_error only if the initial connect fails.
 */
WorkerStats runWorkerLoop(const WorkerOptions &opts);

/**
 * CacheStore client over WRK1: GET/PUT entries from a head node's
 * served store. One connection, requests in lockstep under a lock —
 * cache traffic is tiny next to replay work. Transport failures
 * throw; ResultCache::lookup() degrades a throwing get() to a miss.
 */
class RemoteCacheStore final : public CacheStore
{
  public:
    /** @throws std::runtime_error if the connect fails. */
    RemoteCacheStore(const std::string &host, uint16_t port);
    ~RemoteCacheStore() override;

    const char *kind() const override { return "remote"; }
    std::optional<std::string>
    get(const std::string &hashHex) override;
    void put(const std::string &hashHex,
             const std::string &entry) override;

  private:
    int fd_ = -1;
    std::mutex mutex_;
    std::vector<uint8_t> payload_;
};

/**
 * Parse "host:port" or bare "port" (host defaults to 127.0.0.1).
 * @throws std::invalid_argument on a malformed or out-of-range
 *         port.
 */
std::pair<std::string, uint16_t>
parseHostPort(const std::string &text);

} // namespace wlcrc::runner

#endif // WLCRC_RUNNER_REMOTE_HH
