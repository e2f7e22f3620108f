/**
 * @file
 * Tests for the live write-stream service (src/serve):
 *
 *  - BoundedQueue semantics: blocking push (backpressure), close +
 *    drain delivery guarantee, stall accounting;
 *  - BankEngine equivalence: the bank-sharded live encode reproduces
 *    an offline sharded Replayer merge bit for bit;
 *  - allocation guard: the steady-state submit->encode path performs
 *    no heap allocation (global operator new instrumented);
 *  - protocol framing over a socketpair: clean EOF, bad magic,
 *    oversized and truncated frames map to their named errors;
 *  - in-process Server + Client round trip: Hello/Write/Ack/Stats/
 *    Bye against a real listening socket;
 *  - subprocess capture-replay equivalence: a seeded wlcrc_load
 *    session against wlcrc_serve --capture, the captured WLCTRC02
 *    streams recombined and replayed with wlcrc_sim --shards, and
 *    the demand-write statistics compared token-for-token;
 *  - subprocess protocol robustness: malformed clients each produce
 *    a clean named per-connection error without affecting a healthy
 *    connection on the same server.
 */

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include "pcm/disturbance.hh"
#include "pcm/energy_model.hh"
#include "runner/json_mini.hh"
#include "runner/runner.hh"
#include "serve/client.hh"
#include "serve/engine.hh"
#include "serve/protocol.hh"
#include "serve/queue.hh"
#include "serve/server.hh"
#include "tracefile/format.hh"
#include "tracefile/mapped_trace.hh"
#include "tracefile/source.hh"
#include "tracefile/writer.hh"
#include "trace/replay.hh"
#include "trace/workload.hh"
#include "wlcrc/factory.hh"

#include "subprocess.hh"

// ---------------------------------------------------------------
// Global operator new/delete instrumentation (same pattern as
// encode_equivalence_test). Only the delta inside a measured region
// matters; gtest's own allocations happen outside.
namespace
{
std::atomic<uint64_t> g_allocCount{0};
}

void *
operator new(std::size_t size)
{
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return ::operator new(size, std::nothrow);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace
{

using namespace wlcrc;

std::vector<trace::WriteTransaction>
makeStream(uint64_t lines, uint64_t seed,
           const std::string &workload = "lesl")
{
    trace::TraceSynthesizer synth(
        trace::WorkloadProfile::byName(workload), seed);
    std::vector<trace::WriteTransaction> out;
    out.reserve(lines);
    for (uint64_t i = 0; i < lines; ++i)
        out.push_back(synth.next());
    return out;
}

// ------------------------------------------------------- BoundedQueue

TEST(BoundedQueue, DeliversInOrder)
{
    serve::BoundedQueue<int> q(4);
    EXPECT_EQ(q.capacity(), 4u);
    EXPECT_TRUE(q.push(1));
    EXPECT_TRUE(q.push(2));
    int v = 0;
    EXPECT_TRUE(q.pop(v));
    EXPECT_EQ(v, 1);
    EXPECT_TRUE(q.pop(v));
    EXPECT_EQ(v, 2);
    EXPECT_EQ(q.depth(), 0u);
}

TEST(BoundedQueue, ZeroCapacityThrows)
{
    EXPECT_THROW(serve::BoundedQueue<int> q(0),
                 std::invalid_argument);
}

TEST(BoundedQueue, FullPushBlocksUntilConsumerDrains)
{
    serve::BoundedQueue<int> q(2);
    ASSERT_TRUE(q.push(1));
    ASSERT_TRUE(q.push(2));
    EXPECT_EQ(q.stallCount(), 0u);

    std::atomic<bool> pushed{false};
    std::thread producer([&] {
        EXPECT_TRUE(q.push(3)); // blocks: queue is full
        pushed.store(true);
    });
    // The producer must stall, not complete: memory stays bounded by
    // the preallocated ring no matter how fast producers are.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(pushed.load());
    EXPECT_EQ(q.depth(), 2u);

    int v = 0;
    EXPECT_TRUE(q.pop(v));
    producer.join();
    EXPECT_TRUE(pushed.load());
    EXPECT_GE(q.stallCount(), 1u);
}

TEST(BoundedQueue, CloseDrainsQueuedItemsThenStops)
{
    serve::BoundedQueue<int> q(4);
    ASSERT_TRUE(q.push(7));
    ASSERT_TRUE(q.push(8));
    q.close();
    EXPECT_FALSE(q.push(9)); // rejected after close
    int v = 0;
    EXPECT_TRUE(q.pop(v)); // ...but queued items still deliver
    EXPECT_EQ(v, 7);
    EXPECT_TRUE(q.pop(v));
    EXPECT_EQ(v, 8);
    EXPECT_FALSE(q.pop(v)); // closed + drained
}

// --------------------------------------------------------- BankEngine

/** Offline reference: sharded Replayer merge, runner idiom. */
trace::ReplayResult
offlineShardedReplay(const std::vector<trace::WriteTransaction> &txns,
                     const std::string &scheme, uint64_t seed,
                     unsigned shards)
{
    const auto energy = pcm::EnergyModel::withHighStateEnergies(
        307.0, 547.0);
    const auto codec = core::makeCodec(scheme, energy);
    const pcm::WriteUnit unit{energy, pcm::DisturbanceModel()};
    trace::ReplayResult merged;
    for (unsigned s = 0; s < shards; ++s) {
        trace::Replayer rep(*codec, unit,
                            runner::shardSeed(seed, s, shards));
        for (const auto &t : txns)
            if (runner::shardOf(t.lineAddr, shards) == s)
                rep.step(t);
        merged.merge(rep.result());
    }
    return merged;
}

void
expectResultsIdentical(const trace::ReplayResult &a,
                       const trace::ReplayResult &b)
{
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.compressedWrites, b.compressedWrites);
    EXPECT_EQ(a.vnrIterations, b.vnrIterations);
    EXPECT_EQ(a.energyPj.mean(), b.energyPj.mean());
    EXPECT_EQ(a.energyPj.stddev(), b.energyPj.stddev());
    EXPECT_EQ(a.updatedCells.mean(), b.updatedCells.mean());
    EXPECT_EQ(a.disturbErrors.mean(), b.disturbErrors.mean());
    EXPECT_EQ(a.dataEnergyPj.mean(), b.dataEnergyPj.mean());
    EXPECT_EQ(a.auxEnergyPj.mean(), b.auxEnergyPj.mean());
}

TEST(BankEngine, MatchesOfflineShardedReplayBitForBit)
{
    const auto txns = makeStream(400, 11);
    serve::EngineConfig cfg;
    cfg.scheme = "WLCRC-16";
    cfg.banks = 3;
    cfg.seed = 9;
    serve::BankEngine engine(cfg);
    engine.start();
    serve::ConnTicket ticket;
    for (const auto &t : txns)
        ASSERT_TRUE(engine.submit(t, &ticket));
    engine.stop();
    EXPECT_EQ(engine.totalEncoded(), txns.size());
    EXPECT_EQ(ticket.encoded.load(), txns.size());

    const auto offline =
        offlineShardedReplay(txns, "WLCRC-16", 9, 3);
    expectResultsIdentical(engine.mergedResult(), offline);
}

TEST(BankEngine, SnapshotsConvergeToExactResult)
{
    const auto txns = makeStream(200, 4);
    serve::EngineConfig cfg;
    cfg.banks = 2;
    cfg.seed = 5;
    serve::BankEngine engine(cfg);
    engine.start();
    for (const auto &t : txns)
        ASSERT_TRUE(engine.submit(t, nullptr));
    engine.stop();
    // After the drain, the published seqlock snapshots equal the
    // exact per-bank results.
    uint64_t snapWrites = 0;
    for (const auto &s : engine.snapshot())
        snapWrites += s.replay.writes;
    EXPECT_EQ(snapWrites, txns.size());
}

TEST(BankEngine, SubmitAfterStopIsRejected)
{
    serve::EngineConfig cfg;
    cfg.banks = 1;
    serve::BankEngine engine(cfg);
    engine.start();
    engine.stop();
    serve::ConnTicket ticket;
    const auto txns = makeStream(1, 1);
    EXPECT_FALSE(engine.submit(txns[0], &ticket));
    EXPECT_EQ(ticket.accepted.load(), 0u);
}

TEST(AllocationGuard, SteadyStateEncodePathAllocatesNothing)
{
    const auto txns = makeStream(300, 21);
    serve::EngineConfig cfg;
    cfg.banks = 2;
    cfg.queueCapacity = 64;
    serve::BankEngine engine(cfg);
    engine.start();
    serve::ConnTicket ticket;
    // Warm up: primes every line in the device image and grows the
    // replayers' reusable buffers.
    for (const auto &t : txns)
        ASSERT_TRUE(engine.submit(t, &ticket));
    engine.drainWait(ticket);

    const uint64_t before =
        g_allocCount.load(std::memory_order_relaxed);
    for (const auto &t : txns)
        engine.submit(t, &ticket);
    engine.drainWait(ticket);
    const uint64_t after =
        g_allocCount.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << "submit->encode steady state allocated";
    engine.stop();
}

// ----------------------------------------------------- protocol frames

/** recvFrame against bytes pushed through a socketpair. */
serve::RecvStatus
recvFromBytes(const void *bytes, std::size_t n,
              serve::FrameHeader &h)
{
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    EXPECT_TRUE(serve::writeAll(fds[0], bytes, n));
    ::close(fds[0]); // EOF after our bytes
    std::vector<uint8_t> payload;
    const auto st = serve::recvFrame(fds[1], h, payload);
    ::close(fds[1]);
    return st;
}

TEST(Protocol, RoundTripsAFrame)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const char payload[] = "hello";
    ASSERT_TRUE(serve::sendFrame(fds[0], serve::FrameType::StatsReply,
                                 0, payload, 5));
    serve::FrameHeader h;
    std::vector<uint8_t> got;
    ASSERT_EQ(serve::recvFrame(fds[1], h, got),
              serve::RecvStatus::Ok);
    EXPECT_EQ(static_cast<serve::FrameType>(h.type),
              serve::FrameType::StatsReply);
    ASSERT_EQ(got.size(), 5u);
    EXPECT_EQ(std::memcmp(got.data(), payload, 5), 0);
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(Protocol, CleanEofOnFrameBoundary)
{
    serve::FrameHeader h;
    EXPECT_EQ(recvFromBytes(nullptr, 0, h),
              serve::RecvStatus::CleanEof);
}

TEST(Protocol, BadMagicIsNamed)
{
    uint8_t junk[serve::frameHeaderBytes] = {0xde, 0xad, 0xbe, 0xef};
    serve::FrameHeader h;
    const auto st = recvFromBytes(junk, sizeof junk, h);
    EXPECT_EQ(st, serve::RecvStatus::BadMagic);
    EXPECT_STREQ(serve::recvErrorName(st), "bad-magic");
}

TEST(Protocol, OversizedFrameIsNamed)
{
    serve::FrameHeader h;
    h.type = static_cast<uint8_t>(serve::FrameType::Write);
    h.payloadBytes = serve::maxFramePayload + 1;
    uint8_t hdr[serve::frameHeaderBytes];
    serve::encodeFrameHeader(hdr, h);
    serve::FrameHeader got;
    const auto st = recvFromBytes(hdr, sizeof hdr, got);
    EXPECT_EQ(st, serve::RecvStatus::Oversized);
    EXPECT_STREQ(serve::recvErrorName(st), "oversized-frame");
}

TEST(Protocol, TruncatedFrameIsNamed)
{
    serve::FrameHeader h;
    h.type = static_cast<uint8_t>(serve::FrameType::Write);
    h.payloadBytes = 136;
    uint8_t bytes[serve::frameHeaderBytes + 10];
    serve::encodeFrameHeader(bytes, h);
    std::memset(bytes + serve::frameHeaderBytes, 0, 10);
    serve::FrameHeader got;
    const auto st = recvFromBytes(bytes, sizeof bytes, got);
    EXPECT_EQ(st, serve::RecvStatus::Truncated);
    EXPECT_STREQ(serve::recvErrorName(st), "truncated-frame");
}

// ------------------------------------------- in-process server+client

TEST(Server, HelloWriteAckStatsByeRoundTrip)
{
    serve::ServerConfig cfg;
    cfg.engine.banks = 2;
    cfg.engine.seed = 3;
    serve::Server server(cfg);
    server.start();
    ASSERT_GT(server.port(), 0);

    const auto txns = makeStream(100, 8);
    serve::Client client;
    client.connect("127.0.0.1", server.port());
    client.hello(42);
    client.sendWrites(txns.data(), 60, true);
    EXPECT_EQ(client.readAck(), 60u);
    client.sendWrites(txns.data() + 60, 40, false);

    const auto stats = runner::parseJson(client.stats());
    EXPECT_EQ(stats.at("serve_version").asU64(), 1u);
    EXPECT_EQ(stats.at("banks").asU64(), 2u);
    EXPECT_EQ(stats.at("accepted").asU64(), 100u);
    EXPECT_EQ(stats.at("final").asBool(), false);

    const auto byeAck = runner::parseJson(client.bye());
    EXPECT_EQ(byeAck.at("stream").asU64(), 42u);
    EXPECT_EQ(byeAck.at("accepted").asU64(), 100u);
    // Bye drains: every admitted write is encoded before the ack.
    EXPECT_EQ(byeAck.at("encoded").asU64(), 100u);
    EXPECT_TRUE(byeAck.at("clean").asBool());

    server.requestStop();
    server.wait();
    const auto report = runner::parseJson(server.snapshotJson(true));
    EXPECT_EQ(report.at("encoded").asU64(), 100u);
    EXPECT_TRUE(report.at("result").at("ok").asBool());
    EXPECT_EQ(report.at("result").at("writes").asU64(), 100u);
}

TEST(Server, WriteWithoutHelloIsRejectedByName)
{
    serve::ServerConfig cfg;
    cfg.engine.banks = 1;
    serve::Server server(cfg);
    server.start();

    const auto txns = makeStream(1, 1);
    serve::Client client;
    client.connect("127.0.0.1", server.port());
    client.sendWrites(txns.data(), 1, true);
    EXPECT_THROW(
        {
            try {
                client.readAck();
            } catch (const std::runtime_error &e) {
                EXPECT_NE(std::string(e.what()).find("no-hello"),
                          std::string::npos)
                    << e.what();
                throw;
            }
        },
        std::runtime_error);

    // The server keeps serving other connections afterwards.
    serve::Client ok;
    ok.connect("127.0.0.1", server.port());
    ok.hello(1);
    ok.sendWrites(txns.data(), 1, true);
    EXPECT_EQ(ok.readAck(), 1u);
    (void)ok.bye();
    server.requestStop();
    server.wait();
}

// ------------------------------------------------- subprocess harness

struct ServerProc
{
    test::OutputPipe pipe;
    uint16_t port = 0;

    /** Reads stdout to EOF (the final report) and reaps. */
    std::string
    finish()
    {
        int status = -1;
        return test::finishOutputPipe(pipe, status);
    }
};

/** Spawn wlcrc_serve and parse the listening banner for the port. */
ServerProc
spawnServer(const std::string &args)
{
    ServerProc proc;
    const std::string cmd =
        std::string(WLCRC_SERVE_BIN) + " " + args + " 2>/dev/null";
    proc.pipe = test::openOutputPipe(cmd);
    char line[256];
    if (!std::fgets(line, sizeof line, proc.pipe.out))
        throw std::runtime_error("no banner from wlcrc_serve");
    const char *colon = std::strrchr(line, ':');
    if (!colon)
        throw std::runtime_error(std::string("bad banner: ") + line);
    proc.port = static_cast<uint16_t>(
        std::strtoul(colon + 1, nullptr, 10));
    return proc;
}

std::filesystem::path
freshDir(const std::string &name)
{
    const auto dir =
        std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

// -------------------------------------- capture-replay equivalence

/**
 * Drive a captured server session and diff its telemetry against an
 * offline wlcrc_sim replay of the recombined capture, token for
 * token. @p captureFlags selects the capture container flavour;
 * @p expectV3 additionally asserts the per-stream files landed as
 * (compressed) WLCTRC03.
 */
void
runCaptureReplayCase(const std::string &dirName,
                     const std::string &captureFlags, bool expectV3)
{
    const auto dir = freshDir(dirName);
    ServerProc server = spawnServer(
        "--port 0 --scheme WLCRC-16 --banks 4 --seed 9 --capture " +
        dir.string() + captureFlags + " --max-conns 4");

    int exit_code = -1;
    const std::string loadOut = test::captureStdout(
        std::string(WLCRC_LOAD_BIN) + " --port " +
            std::to_string(server.port) +
            " --connections 4 --workload lesl --lines 300"
            " --seed 5 2>&1",
        exit_code);
    ASSERT_EQ(exit_code, 0) << loadOut;

    // All 4 connections closed -> the server drains and reports.
    const std::string reportText = server.finish();
    const auto report = runner::parseJson(reportText);
    ASSERT_TRUE(report.at("final").asBool());
    const auto &live = report.at("result");
    ASSERT_TRUE(live.at("ok").asBool());
    ASSERT_EQ(live.at("writes").asU64(), 300u);

    // Recombine the per-stream captures in stream order. The cross-
    // file order is irrelevant for the sharded replay (connections
    // carry disjoint address residue classes), but a fixed order
    // keeps the combined file deterministic.
    const auto combined = dir / "combined.wlctrc";
    {
        tracefile::TraceFileWriter writer(combined.string());
        uint64_t records = 0;
        for (unsigned i = 0; i < 4; ++i) {
            const auto part =
                dir / ("stream-" + std::to_string(i) + ".wlctrc");
            ASSERT_TRUE(std::filesystem::exists(part)) << part;
            if (expectV3) {
                const tracefile::MappedTrace capture(part.string());
                EXPECT_EQ(capture.format(),
                          tracefile::TraceFormat::v3)
                    << part;
                EXPECT_TRUE(capture.anyCompressed()) << part;
            } else {
                EXPECT_EQ(tracefile::detectFormat(part.string()),
                          tracefile::TraceFormat::v2)
                    << part;
            }
            const auto src = tracefile::openTraceSource(part.string());
            auto cursor = src->open();
            while (auto txn = cursor->next()) {
                writer.write(*txn);
                ++records;
            }
        }
        writer.close();
        ASSERT_EQ(records, 300u);
    }

    // Offline replay: same scheme, seed and shard count as the
    // server's banks. Every demand-write statistic must match the
    // server's telemetry token for token — doubles included.
    const std::string simOut = test::captureStdout(
        std::string(WLCRC_SIM_BIN) + " --trace-in " +
            combined.string() +
            " --scheme WLCRC-16 --seed 9 --shards 4 --json"
            " 2>/dev/null",
        exit_code);
    ASSERT_EQ(exit_code, 0) << simOut;
    const auto simDoc = runner::parseJson(simOut);
    ASSERT_EQ(simDoc.array.size(), 1u);
    const auto &offline = simDoc.array[0];
    ASSERT_TRUE(offline.at("ok").asBool());

    for (const char *field :
         {"writes", "compressed_writes", "vnr_iterations",
          "energy_pj", "data_energy_pj", "aux_energy_pj",
          "updated_cells", "data_updated", "aux_updated",
          "disturb_errors", "data_disturbed", "aux_disturbed",
          "compressed_pct", "vnr_per_write"}) {
        EXPECT_EQ(live.at(field).text, offline.at(field).text)
            << "field " << field << " diverged";
    }
    std::filesystem::remove_all(dir);
}

TEST(CaptureReplay, ServerTelemetryMatchesOfflineReplayExactly)
{
    runCaptureReplayCase("wlcrc_serve_capture_test", "", false);
}

TEST(CaptureReplay, CompressedCaptureReplaysIdentically)
{
    // Same equivalence, but the per-stream captures land as
    // compressed WLCTRC03: capture compression must be framing
    // only, invisible to the replayed statistics.
    runCaptureReplayCase("wlcrc_serve_capture_v3_test",
                         " --capture-format v3 --capture-codec lz",
                         true);
}

// ------------------------------------------- protocol robustness

TEST(Robustness, MalformedClientsFailCleanlyWithoutCollateral)
{
    ServerProc server = spawnServer("--port 0 --banks 2 --max-conns 5");
    const auto txns = makeStream(50, 3);

    // The healthy connection outlives every attacker.
    serve::Client good;
    good.connect("127.0.0.1", server.port);
    good.hello(1);
    good.sendWrites(txns.data(), 25, true);
    EXPECT_EQ(good.readAck(), 25u);

    { // garbage magic
        serve::Client bad;
        bad.connect("127.0.0.1", server.port);
        const uint8_t junk[12] = {1, 2, 3, 4, 5, 6};
        bad.sendRaw(junk, sizeof junk);
    }
    { // oversized length
        serve::Client bad;
        bad.connect("127.0.0.1", server.port);
        serve::FrameHeader h;
        h.type = static_cast<uint8_t>(serve::FrameType::Write);
        h.payloadBytes = serve::maxFramePayload + 1;
        uint8_t hdr[serve::frameHeaderBytes];
        serve::encodeFrameHeader(hdr, h);
        bad.sendRaw(hdr, sizeof hdr);
    }
    { // truncated frame: header promises 136 B, delivers 10
        serve::Client bad;
        bad.connect("127.0.0.1", server.port);
        serve::FrameHeader h;
        h.type = static_cast<uint8_t>(serve::FrameType::Write);
        h.payloadBytes = 136;
        uint8_t bytes[serve::frameHeaderBytes + 10] = {};
        serve::encodeFrameHeader(bytes, h);
        bad.sendRaw(bytes, sizeof bytes);
    } // destructor closes mid-payload
    { // mid-stream disconnect after a valid Hello + Write
        serve::Client bad;
        bad.connect("127.0.0.1", server.port);
        bad.hello(99);
        bad.sendWrites(txns.data() + 25, 10, false);
        bad.close();
    }

    // Poll the healthy connection's stats until the server has
    // counted all four failures (their readers run concurrently).
    const char *expected[] = {"bad-magic", "oversized-frame",
                              "truncated-frame", "disconnect"};
    bool allCounted = false;
    for (int tries = 0; tries < 100 && !allCounted; ++tries) {
        const auto stats = runner::parseJson(good.stats());
        const auto &errors = stats.at("errors");
        allCounted = true;
        for (const char *name : expected)
            if (!errors.has(name) ||
                errors.at(name).asU64() < 1)
                allCounted = false;
        if (!allCounted)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
    }
    EXPECT_TRUE(allCounted) << good.stats();

    // The healthy connection still works end to end.
    good.sendWrites(txns.data() + 35, 15, true);
    EXPECT_EQ(good.readAck(), 40u);
    const auto byeAck = runner::parseJson(good.bye());
    EXPECT_TRUE(byeAck.at("clean").asBool());
    EXPECT_EQ(byeAck.at("encoded").asU64(), 40u);

    // 5 connections closed -> max-conns stop -> final report.
    const auto report = runner::parseJson(server.finish());
    EXPECT_TRUE(report.at("final").asBool());
    EXPECT_EQ(report.at("stop_reason").asString(), "max-conns");
    const auto &errors = report.at("errors");
    for (const char *name : expected)
        EXPECT_GE(errors.at(name).asU64(), 1u) << name;
    // The disconnected stream's 10 writes were still encoded; only
    // the clean stream and the disconnected one carried writes.
    EXPECT_EQ(report.at("encoded").asU64(), 50u);
}

} // namespace
