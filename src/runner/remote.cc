#include "remote.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <deque>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "net/frame.hh"
#include "runner/json_mini.hh"
#include "runner/report.hh"
#include "runner/spec_codec.hh"
#include "tracefile/format.hh"

namespace wlcrc::runner
{

namespace
{

using Clock = std::chrono::steady_clock;

bool
sendF(int fd, WorkFrame type, const void *payload = nullptr,
      std::size_t payloadBytes = 0)
{
    return net::sendFrame(fd, workMagic,
                          static_cast<uint8_t>(type), 0, payload,
                          payloadBytes);
}

net::RecvStatus
recvF(int fd, net::FrameHeader &h, std::vector<uint8_t> &payload)
{
    return net::recvFrame(fd, workMagic, maxWorkPayload, h, payload);
}

void
sendError(int fd, const char *name)
{
    sendF(fd, WorkFrame::Error, name, std::strlen(name));
}

/** Connect to @p host:@p port. @throws std::runtime_error. */
int
connectTo(const std::string &host, uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd);
        throw std::runtime_error("bad host \"" + host + "\"");
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) != 0) {
        const int err = errno;
        ::close(fd);
        throw std::runtime_error("cannot connect " + host + ":" +
                                 std::to_string(port) + ": " +
                                 std::strerror(err));
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return fd;
}

/** u64 pointId prefix + text body (Work and Result payloads). */
std::vector<uint8_t>
idTextPayload(uint64_t id, const std::string &text)
{
    std::vector<uint8_t> p(8 + text.size());
    tracefile::putLe64(p.data(), id);
    std::memcpy(p.data() + 8, text.data(), text.size());
    return p;
}

} // namespace

std::pair<std::string, uint16_t>
parseHostPort(const std::string &text)
{
    std::string host = "127.0.0.1";
    std::string portText = text;
    if (const auto colon = text.rfind(':');
        colon != std::string::npos) {
        host = text.substr(0, colon);
        portText = text.substr(colon + 1);
    }
    unsigned long port = 0;
    std::size_t used = 0;
    try {
        port = std::stoul(portText, &used);
    } catch (const std::exception &) {
        used = 0;
    }
    if (host.empty() || used != portText.size() || port == 0 ||
        port > 65535)
        throw std::invalid_argument("bad host:port \"" + text +
                                    "\"");
    return {host, static_cast<uint16_t>(port)};
}

// ---------------------------------------------------------------
// Head node
// ---------------------------------------------------------------

struct RemoteBackend::Impl
{
    explicit Impl(RemoteBackendOptions o) : opts(std::move(o)) {}

    RemoteBackendOptions opts;

    int listenFd = -1;
    uint16_t port = 0;
    std::thread acceptThread;

    std::mutex mutex;
    std::condition_variable cv;
    bool finFlag = false;

    /**
     * Serializes every taskDone invocation (connection threads and
     * run()'s inline path) and is never held together with `mutex`,
     * so a callback may block or call back into the backend (e.g.
     * errorCounts()) without stalling or deadlocking the queue.
     */
    std::mutex callbackMutex;
    /** Result callbacks copied out of the lock but not yet run. */
    unsigned callbacksInFlight = 0;

    /** One grid point of the active run. */
    struct Point
    {
        const ExperimentSpec *spec = nullptr;
        std::string text; //!< canonicalSpec(), crosses the wire
        enum class State
        {
            Pending,
            Issued,
            Done
        } state = State::Pending;
        Clock::time_point issuedAt{};
        uint64_t holder = 0; //!< conn id, meaningful while Issued
        ExperimentResult result;
    };

    /** Queue state of the run in flight; lives on run()'s stack. */
    struct Run
    {
        std::vector<Point> points;
        std::deque<std::size_t> pending;
        std::size_t done = 0;
        const std::function<void()> *taskDone = nullptr;
    };
    Run *active = nullptr;

    std::map<std::string, uint64_t> errors;

    struct Conn
    {
        /**
         * Closed only here, when the last reference drops. stop()
         * snapshots the shared_ptrs, so an fd it shuts down cannot
         * be concurrently closed and reused for something else.
         */
        ~Conn()
        {
            if (fd >= 0)
                ::close(fd);
        }

        int fd = -1;
        uint64_t id = 0;
        bool hello = false;
        std::set<std::size_t> held; //!< point ids issued here
    };
    std::vector<std::shared_ptr<Conn>> conns;
    std::vector<std::thread> connThreads;
    uint64_t nextConnId = 0;

    /** Whether this head ever spawned its own workers. */
    bool fleetSpawned = false;
    /** Spawned workers not yet reaped. */
    std::vector<pid_t> spawned;
    bool stopped = false;

    void
    countLocked(const std::string &name)
    {
        ++errors[name];
    }

    void
    count(const std::string &name)
    {
        std::lock_guard lock(mutex);
        countLocked(name);
    }

    void
    start()
    {
        listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listenFd < 0)
            throw std::runtime_error("socket() failed");
        const int one = 1;
        ::setsockopt(listenFd, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof one);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(opts.port);
        if (::bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof addr) != 0) {
            ::close(listenFd);
            listenFd = -1;
            throw std::runtime_error(
                "cannot bind 127.0.0.1:" +
                std::to_string(opts.port) + ": " +
                std::strerror(errno));
        }
        socklen_t len = sizeof addr;
        ::getsockname(listenFd,
                      reinterpret_cast<sockaddr *>(&addr), &len);
        port = ntohs(addr.sin_port);
        if (::listen(listenFd, 128) != 0) {
            ::close(listenFd);
            listenFd = -1;
            throw std::runtime_error("listen() failed");
        }
        acceptThread = std::thread([this] { acceptLoop(); });
    }

    void
    acceptLoop()
    {
        for (;;) {
            const int cfd = ::accept(listenFd, nullptr, nullptr);
            if (cfd < 0) {
                if (errno == EINTR)
                    continue;
                break; // listener closed by stop()
            }
            const int one = 1;
            ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one,
                         sizeof one);
            std::lock_guard lock(mutex);
            if (finFlag) {
                ::close(cfd);
                continue;
            }
            auto conn = std::make_shared<Conn>();
            conn->fd = cfd;
            conn->id = nextConnId++;
            conns.push_back(conn);
            connThreads.emplace_back(
                [this, conn] { connectionLoop(conn); });
        }
    }

    /**
     * Put every Issued point older than the deadline back on the
     * queue. Called with the lock held, from Pulls that found the
     * queue empty and from run()'s periodic wait wake-ups.
     */
    void
    scanStragglersLocked()
    {
        if (!active)
            return;
        const auto now = Clock::now();
        const std::chrono::duration<double> deadline(
            opts.reissueSec);
        for (std::size_t i = 0; i < active->points.size(); ++i) {
            Point &p = active->points[i];
            if (p.state != Point::State::Issued ||
                now - p.issuedAt <= deadline)
                continue;
            p.state = Point::State::Pending;
            active->pending.push_back(i);
            countLocked("reissued");
            for (const auto &c : conns)
                if (c->id == p.holder)
                    c->held.erase(i);
        }
    }

    void
    handlePull(const std::shared_ptr<Conn> &c)
    {
        bool fin = false;
        std::vector<uint8_t> work;
        {
            std::lock_guard lock(mutex);
            fin = finFlag;
            if (!fin && active) {
                if (active->pending.empty())
                    scanStragglersLocked();
                while (!active->pending.empty()) {
                    const std::size_t idx =
                        active->pending.front();
                    active->pending.pop_front();
                    Point &p = active->points[idx];
                    // A queue entry can go stale: a reissued
                    // point's first result arrived and won while
                    // its requeued entry still sat here. Issuing
                    // it again would flip a Done point back to
                    // Issued and double-count its completion.
                    if (p.state != Point::State::Pending)
                        continue;
                    p.state = Point::State::Issued;
                    p.issuedAt = Clock::now();
                    p.holder = c->id;
                    c->held.insert(idx);
                    work = idTextPayload(idx, p.text);
                    break;
                }
            }
        }
        // Sends happen outside the lock: a worker that stopped
        // reading must block its own connection thread only, never
        // the whole head. A failed Work send leaves the point
        // Issued here; the disconnect path requeues it.
        if (fin)
            sendF(c->fd, WorkFrame::Fin);
        else if (!work.empty())
            sendF(c->fd, WorkFrame::Work, work.data(), work.size());
        else
            sendF(c->fd, WorkFrame::Retry);
    }

    /** @return false to drop the connection. */
    bool
    handleResult(const std::shared_ptr<Conn> &c,
                 const std::vector<uint8_t> &payload)
    {
        if (payload.size() < 8) {
            count("malformed-result");
            sendError(c->fd, "malformed-result");
            return false;
        }
        const uint64_t id = tracefile::getLe64(payload.data());
        const std::string json(payload.begin() + 8, payload.end());

        std::optional<JsonValue> doc;
        try {
            doc.emplace(parseJson(json));
        } catch (const std::exception &) {
        }

        bool malformed = false;
        bool completed = false;
        std::function<void()> done;
        {
            std::lock_guard lock(mutex);
            c->held.erase(static_cast<std::size_t>(id));
            if (!active || id >= active->points.size()) {
                // Straggler of a finished run racing Fin: harmless.
                countLocked("duplicate-result");
                return true;
            }
            Point &p =
                active->points[static_cast<std::size_t>(id)];
            if (p.state == Point::State::Done) {
                // The point was reissued and someone else won.
                // Results are deterministic, so dropping this copy
                // is safe.
                countLocked("duplicate-result");
                return true;
            }
            ExperimentResult res;
            malformed = !doc;
            if (doc) {
                try {
                    res = readResultObject(*doc, *p.spec);
                } catch (const std::exception &) {
                    malformed = true;
                }
            }
            if (malformed) {
                countLocked("malformed-result");
                if (p.state == Point::State::Issued) {
                    p.state = Point::State::Pending;
                    active->pending.push_back(
                        static_cast<std::size_t>(id));
                }
            } else {
                // A reissued point sits in the queue as a Pending
                // entry; its original worker's result winning here
                // must retire that entry, or handlePull would
                // issue the already-Done point again.
                if (p.state == Point::State::Pending) {
                    auto &q = active->pending;
                    q.erase(std::remove(
                                q.begin(), q.end(),
                                static_cast<std::size_t>(id)),
                            q.end());
                }
                // A well-formed ok=false is authoritative — the
                // replay itself failed, identical on any worker —
                // not a worker fault to retry around.
                if (!res.ok)
                    countLocked("worker-reported-error");
                p.result = std::move(res);
                p.state = Point::State::Done;
                ++active->done;
                completed = true;
                if (active->taskDone && *active->taskDone) {
                    done = *active->taskDone;
                    ++callbacksInFlight;
                }
            }
        }
        if (malformed) {
            sendError(c->fd, "malformed-result");
            return false;
        }
        // The progress callback runs outside the queue lock — it
        // may block or call back into the backend — and run()
        // waits for callbacksInFlight to drain, so a callback
        // never outlives the run() call that registered it.
        if (done) {
            {
                std::lock_guard cb(callbackMutex);
                done();
            }
            std::lock_guard lock(mutex);
            --callbacksInFlight;
        }
        if (completed)
            cv.notify_all();
        return true;
    }

    /** @return false to drop the connection. */
    bool
    handleCacheGet(const std::shared_ptr<Conn> &c,
                   const std::vector<uint8_t> &payload)
    {
        const std::string hash(payload.begin(), payload.end());
        try {
            checkCacheHash(hash);
        } catch (const std::exception &) {
            count("bad-cache-hash");
            sendError(c->fd, "bad-cache-hash");
            return false;
        }
        std::optional<std::string> entry;
        if (opts.serveCache) {
            try {
                entry = opts.serveCache->get(hash);
            } catch (const std::exception &) {
                entry.reset(); // dead store: serve a miss
            }
        }
        if (entry)
            return sendF(c->fd, WorkFrame::CacheHit, entry->data(),
                         entry->size());
        return sendF(c->fd, WorkFrame::CacheMiss);
    }

    /** @return false to drop the connection. */
    bool
    handleCachePut(const std::shared_ptr<Conn> &c,
                   const std::vector<uint8_t> &payload)
    {
        const std::string hash(
            payload.begin(),
            payload.begin() +
                std::min<std::size_t>(16, payload.size()));
        try {
            checkCacheHash(hash);
        } catch (const std::exception &) {
            count("bad-cache-hash");
            sendError(c->fd, "bad-cache-hash");
            return false;
        }
        const std::string entry(payload.begin() + 16,
                                payload.end());
        if (!opts.serveCache) {
            sendError(c->fd, "no-cache");
            return true;
        }
        try {
            opts.serveCache->put(hash, entry);
        } catch (const std::exception &) {
            // A full disk costs the entry, never the connection.
            count("cache-put-failed");
            sendError(c->fd, "cache-put-failed");
            return true;
        }
        return sendF(c->fd, WorkFrame::PutAck);
    }

    void
    connectionLoop(const std::shared_ptr<Conn> &c)
    {
        net::FrameHeader h;
        std::vector<uint8_t> payload;
        for (;;) {
            const net::RecvStatus st = recvF(c->fd, h, payload);
            if (st != net::RecvStatus::Ok) {
                if (st != net::RecvStatus::CleanEof) {
                    count(net::recvErrorName(st));
                    sendError(c->fd, net::recvErrorName(st));
                }
                break;
            }
            if (!c->hello &&
                h.type != static_cast<uint8_t>(WorkFrame::Hello)) {
                count("bad-hello");
                sendError(c->fd, "bad-hello");
                break;
            }
            bool keep = true;
            switch (static_cast<WorkFrame>(h.type)) {
            case WorkFrame::Hello:
                if (payload.size() != 4 ||
                    tracefile::getLe32(payload.data()) !=
                        workProtocolVersion) {
                    count("bad-hello");
                    sendError(c->fd, "bad-hello");
                    keep = false;
                    break;
                }
                c->hello = true;
                break;
            case WorkFrame::Pull:
                handlePull(c);
                break;
            case WorkFrame::Result:
                keep = handleResult(c, payload);
                break;
            case WorkFrame::CacheGet:
                keep = handleCacheGet(c, payload);
                break;
            case WorkFrame::CachePut:
                keep = handleCachePut(c, payload);
                break;
            default:
                count("bad-frame-type");
                sendError(c->fd, "bad-frame-type");
                keep = false;
                break;
            }
            if (!keep)
                break;
        }
        // This thread is the fd's only writer, so the shutdown
        // farewell is sent here (not from stop(), which would race
        // our own sends): best-effort — a worker that already hung
        // up sees plain EOF instead, which it equally accepts.
        bool fin = false;
        {
            std::lock_guard lock(mutex);
            fin = finFlag;
        }
        if (fin)
            sendF(c->fd, WorkFrame::Fin);
        dropConn(c);
    }

    /** Requeue a closing connection's issued points, close its fd. */
    void
    dropConn(const std::shared_ptr<Conn> &c)
    {
        {
            std::lock_guard lock(mutex);
            if (active) {
                for (const std::size_t id : c->held) {
                    Point &p = active->points[id];
                    if (p.state == Point::State::Issued &&
                        p.holder == c->id) {
                        p.state = Point::State::Pending;
                        active->pending.push_back(id);
                        countLocked("worker-died");
                    }
                }
            }
            c->held.clear();
            conns.erase(
                std::remove(conns.begin(), conns.end(), c),
                conns.end());
        }
        // No close here: ~Conn closes once the last shared_ptr
        // (possibly a snapshot inside stop()) lets go, so the fd
        // number cannot be recycled under a concurrent shutdown.
        ::shutdown(c->fd, SHUT_RDWR);
        cv.notify_all();
    }

    void
    spawnWorkers(unsigned jobs)
    {
        // The lock covers `spawned` against a stop() (destructor)
        // racing an in-flight run() from another thread.
        std::lock_guard lock(mutex);
        if (opts.workerBinary.empty() || fleetSpawned)
            return;
        fleetSpawned = true;
        unsigned n = opts.spawnWorkers;
        if (n == 0)
            n = jobs ? jobs : std::thread::hardware_concurrency();
        n = std::max(1u, n);
        const std::string connectArg =
            "127.0.0.1:" + std::to_string(port);
        for (unsigned i = 0; i < n; ++i) {
            const pid_t pid = ::fork();
            if (pid < 0)
                throw std::runtime_error("fork() failed: " +
                                         std::string(
                                             std::strerror(errno)));
            if (pid == 0) {
                // The head's own stdout is the byte-compared
                // report stream — a child must not share it even
                // though wlcrc_worker is stdout-silent by design.
                ::dup2(STDERR_FILENO, STDOUT_FILENO);
                ::execlp(opts.workerBinary.c_str(),
                         opts.workerBinary.c_str(), "--connect",
                         connectArg.c_str(),
                         static_cast<char *>(nullptr));
                ::_exit(127);
            }
            spawned.push_back(pid);
        }
    }

    /**
     * True once a spawned fleet can no longer do any work: every
     * worker this head spawned has exited (reaped here, so stop()
     * never waits on a recycled pid) and no connection is left. A
     * head without spawned workers serves an external cluster that
     * may still connect, so it never gives up. Called with the lock
     * held.
     */
    bool
    fleetDeadLocked()
    {
        if (!fleetSpawned)
            return false;
        std::erase_if(spawned, [](pid_t pid) {
            const pid_t r = ::waitpid(pid, nullptr, WNOHANG);
            return r == pid || (r < 0 && errno == ECHILD);
        });
        return spawned.empty() && conns.empty();
    }

    std::vector<ExperimentResult>
    run(const std::vector<ExperimentSpec> &specs, unsigned jobs,
        const std::function<void()> &taskDone)
    {
        std::vector<ExperimentResult> results(specs.size());

        Run r;
        std::vector<std::size_t> slot; // point k -> specs index
        std::vector<std::size_t> inline_;
        bool stoppedNow = false;
        {
            std::lock_guard lock(mutex);
            stoppedNow = finFlag;
        }
        for (std::size_t i = 0; i < specs.size(); ++i) {
            // After stop() no worker will ever answer; everything
            // degrades to the inline path rather than hanging.
            if (!stoppedNow && processSerializable(specs[i])) {
                Point p;
                p.spec = &specs[i];
                p.text = canonicalSpec(specs[i]);
                r.points.push_back(std::move(p));
                slot.push_back(i);
            } else {
                inline_.push_back(i);
            }
        }
        for (std::size_t k = 0; k < r.points.size(); ++k)
            r.pending.push_back(k);
        r.taskDone = &taskDone;

        if (!r.points.empty()) {
            {
                std::lock_guard lock(mutex);
                active = &r;
            }
            cv.notify_all();
            spawnWorkers(jobs);
        }

        // Hook-bearing / in-memory specs run here while the
        // cluster chews on the serializable ones.
        for (const std::size_t i : inline_) {
            results[i] = runSpecSerial(specs[i]);
            if (taskDone) {
                std::lock_guard cb(callbackMutex);
                taskDone();
            }
        }

        if (!r.points.empty()) {
            std::unique_lock lock(mutex);
            // Draining callbacksInFlight before returning keeps
            // the caller's taskDone (and whatever it captures)
            // alive for every invocation.
            bool fleetDead = false;
            while ((r.done < r.points.size() ||
                    callbacksInFlight > 0) &&
                   !finFlag) {
                // With no worker left nothing can finish a point:
                // fail the rest in-band instead of waiting forever.
                fleetDead = fleetDeadLocked();
                if (fleetDead)
                    break;
                scanStragglersLocked();
                cv.wait_for(lock,
                            std::chrono::milliseconds(100));
            }
            active = nullptr;
            for (std::size_t k = 0; k < r.points.size(); ++k) {
                Point &p = r.points[k];
                if (p.state == Point::State::Done) {
                    results[slot[k]] = std::move(p.result);
                } else {
                    ExperimentResult &res = results[slot[k]];
                    res.spec = *p.spec;
                    res.ok = false;
                    if (fleetDead) {
                        countLocked("no-live-worker");
                        res.error = "remote backend: no live worker "
                                    "(every spawned worker exited "
                                    "before the point completed)";
                    } else {
                        res.error = "remote backend stopped before "
                                    "the point completed";
                    }
                }
            }
        }
        return results;
    }

    void
    stop()
    {
        std::vector<std::shared_ptr<Conn>> snapshot;
        std::vector<pid_t> pids;
        {
            std::lock_guard lock(mutex);
            if (stopped)
                return;
            stopped = true;
            finFlag = true;
            snapshot = conns; // shared_ptrs keep the fds alive
            pids.swap(spawned);
        }
        cv.notify_all();

        // Half-close only: the read shutdown breaks each
        // connection thread's recv, while the intact write side
        // lets that thread — the fd's sole writer — send the Fin
        // farewell itself on its way out. stop() never writes, so
        // frames cannot interleave, and the snapshot above pins the
        // fds so none can be closed and recycled underneath us.
        for (const auto &c : snapshot)
            ::shutdown(c->fd, SHUT_RD);
        if (listenFd >= 0)
            ::shutdown(listenFd, SHUT_RDWR);
        if (acceptThread.joinable())
            acceptThread.join();
        if (listenFd >= 0) {
            ::close(listenFd);
            listenFd = -1;
        }
        for (;;) {
            std::vector<std::thread> threads;
            {
                std::lock_guard lock(mutex);
                // Connections that slipped in after the snapshot
                // above still need their recv broken; SHUT_RDWR
                // here also frees any thread stuck mid-send to a
                // peer that stopped reading.
                for (const auto &c : conns)
                    ::shutdown(c->fd, SHUT_RDWR);
                threads.swap(connThreads);
            }
            if (threads.empty())
                break;
            for (auto &t : threads)
                t.join();
        }

        // Spawned workers exit on Fin / the dropped connection; a
        // hung one (fault injection) gets a SIGKILL after a short
        // grace so stop() always returns.
        const auto deadline =
            Clock::now() + std::chrono::seconds(5);
        for (const pid_t pid : pids) {
            for (;;) {
                const pid_t r = ::waitpid(pid, nullptr, WNOHANG);
                if (r == pid || (r < 0 && errno == ECHILD))
                    break;
                if (Clock::now() >= deadline) {
                    ::kill(pid, SIGKILL);
                    ::waitpid(pid, nullptr, 0);
                    break;
                }
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
            }
        }
    }
};

RemoteBackend::RemoteBackend(RemoteBackendOptions opts)
    : impl_(std::make_unique<Impl>(std::move(opts)))
{
    impl_->start();
}

RemoteBackend::~RemoteBackend()
{
    impl_->stop();
}

std::size_t
RemoteBackend::taskCount(
    const std::vector<ExperimentSpec> &specs) const
{
    return specs.size();
}

std::vector<ExperimentResult>
RemoteBackend::run(const std::vector<ExperimentSpec> &specs,
                   unsigned jobs,
                   const std::function<void()> &taskDone) const
{
    return impl_->run(specs, jobs, taskDone);
}

uint16_t
RemoteBackend::port() const
{
    return impl_->port;
}

void
RemoteBackend::stop()
{
    impl_->stop();
}

std::map<std::string, uint64_t>
RemoteBackend::errorCounts() const
{
    std::lock_guard lock(impl_->mutex);
    return impl_->errors;
}

// ---------------------------------------------------------------
// Worker
// ---------------------------------------------------------------

WorkerStats
runWorkerLoop(const WorkerOptions &opts)
{
    const int fd = connectTo(opts.host, opts.port);
    uint8_t hello[4];
    tracefile::putLe32(hello, workProtocolVersion);
    if (!sendF(fd, WorkFrame::Hello, hello, sizeof hello)) {
        ::close(fd);
        throw std::runtime_error("worker: head hung up on Hello");
    }

    WorkerStats stats;
    net::FrameHeader h;
    std::vector<uint8_t> payload;
    int works = 0;
    for (;;) {
        if (!sendF(fd, WorkFrame::Pull))
            break;
        const net::RecvStatus st = recvF(fd, h, payload);
        if (st != net::RecvStatus::Ok)
            break;
        const auto type = static_cast<WorkFrame>(h.type);
        if (type == WorkFrame::Fin || type == WorkFrame::Error)
            break;
        if (type == WorkFrame::Retry) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(opts.pollMs));
            continue;
        }
        if (type != WorkFrame::Work || payload.size() < 8)
            break; // head speaking a different dialect: bail out
        ++works;
        if (opts.killAfter >= 0 && works >= opts.killAfter)
            ::raise(SIGKILL); // fault injection: die mid-point
        if (opts.hangAfter >= 0 && works >= opts.hangAfter)
            for (;;) // fault injection: hold the point forever
                std::this_thread::sleep_for(
                    std::chrono::hours(1));

        const uint64_t id = tracefile::getLe64(payload.data());
        const std::string text(payload.begin() + 8,
                               payload.end());
        ExperimentResult res;
        try {
            res = runSpecSerial(parseSpec(text));
        } catch (const std::exception &e) {
            res.ok = false;
            res.error = e.what();
        }
        std::ostringstream os;
        writeResultObject(os, res);
        const std::vector<uint8_t> reply =
            idTextPayload(id, os.str());
        ++stats.pointsRun;
        if (!res.ok)
            ++stats.failures;
        if (!sendF(fd, WorkFrame::Result, reply.data(),
                   reply.size()))
            break;
    }
    ::close(fd);
    return stats;
}

// ---------------------------------------------------------------
// Remote cache client
// ---------------------------------------------------------------

RemoteCacheStore::RemoteCacheStore(const std::string &host,
                                   uint16_t port)
{
    fd_ = connectTo(host, port);
    uint8_t hello[4];
    tracefile::putLe32(hello, workProtocolVersion);
    if (!sendF(fd_, WorkFrame::Hello, hello, sizeof hello)) {
        ::close(fd_);
        fd_ = -1;
        throw std::runtime_error(
            "remote cache: head hung up on Hello");
    }
}

RemoteCacheStore::~RemoteCacheStore()
{
    if (fd_ >= 0)
        ::close(fd_);
}

std::optional<std::string>
RemoteCacheStore::get(const std::string &hashHex)
{
    checkCacheHash(hashHex);
    std::lock_guard lock(mutex_);
    if (!sendF(fd_, WorkFrame::CacheGet, hashHex.data(),
               hashHex.size()))
        throw std::runtime_error("remote cache: send failed");
    net::FrameHeader h;
    if (recvF(fd_, h, payload_) != net::RecvStatus::Ok)
        throw std::runtime_error("remote cache: recv failed");
    switch (static_cast<WorkFrame>(h.type)) {
    case WorkFrame::CacheHit:
        return std::string(payload_.begin(), payload_.end());
    case WorkFrame::CacheMiss:
        return std::nullopt;
    default:
        throw std::runtime_error(
            "remote cache: unexpected reply (" +
            std::string(payload_.begin(), payload_.end()) + ")");
    }
}

void
RemoteCacheStore::put(const std::string &hashHex,
                      const std::string &entry)
{
    checkCacheHash(hashHex);
    std::vector<uint8_t> payload(16 + entry.size());
    std::memcpy(payload.data(), hashHex.data(), 16);
    std::memcpy(payload.data() + 16, entry.data(), entry.size());
    std::lock_guard lock(mutex_);
    if (!sendF(fd_, WorkFrame::CachePut, payload.data(),
               payload.size()))
        throw std::runtime_error("remote cache: send failed");
    net::FrameHeader h;
    if (recvF(fd_, h, payload_) != net::RecvStatus::Ok)
        throw std::runtime_error("remote cache: recv failed");
    if (static_cast<WorkFrame>(h.type) != WorkFrame::PutAck)
        throw std::runtime_error(
            "remote cache: put rejected (" +
            std::string(payload_.begin(), payload_.end()) + ")");
}

} // namespace wlcrc::runner
