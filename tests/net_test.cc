/**
 * @file
 * net::ConnServer and net::connectTcp on loopback: binding, the
 * accept gate and budget, the fd rule (a handler never closes its fd;
 * the server closes it once the handler returned) and stop() against
 * blocked handlers and racing clients. The concurrent cases also run
 * under ThreadSanitizer in CI.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include "net/conn_server.hh"

namespace
{

using namespace std::chrono_literals;
using wlcrc::net::ConnServer;
using wlcrc::net::connectTcp;

/** Read until EOF or error; @return bytes read. */
std::size_t
drain(int fd)
{
    std::size_t total = 0;
    char buf[256];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n <= 0)
            return total;
        total += static_cast<std::size_t>(n);
    }
}

/** Poll @p pred for up to five seconds. */
template <typename Pred>
bool
eventually(Pred pred)
{
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (!pred()) {
        if (std::chrono::steady_clock::now() >= deadline)
            return false;
        std::this_thread::sleep_for(1ms);
    }
    return true;
}

/** Start @p server with a handler that counts and drains. */
void
startDraining(ConnServer &server, std::atomic<unsigned> &served,
              ConnServer::StopRequested gate = {},
              unsigned maxConns = 0)
{
    server.start(
        0,
        [&served](int fd, uint64_t) {
            ++served;
            drain(fd);
        },
        std::move(gate), maxConns);
}

TEST(ConnServer, EphemeralBindReportsPortAndSecondBindThrows)
{
    ConnServer first;
    first.start(0, [](int, uint64_t) {});
    ASSERT_NE(first.port(), 0);

    ConnServer second;
    try {
        second.start(first.port(), [](int, uint64_t) {});
        FAIL() << "second bind to port " << first.port()
               << " succeeded";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("cannot bind"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ConnServer, ConnectTcpNamesHostPortAndCause)
{
    ConnServer server;
    server.start(0, [](int, uint64_t) {});
    const uint16_t port = server.port();
    server.stop(); // the port is now closed
    const std::string where = "127.0.0.1:" + std::to_string(port);
    try {
        ::close(connectTcp("127.0.0.1", port));
        FAIL() << "connect to a closed port succeeded";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(where),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(connectTcp("not-an-ip", port), std::runtime_error);
}

TEST(ConnServer, ClosesTheFdWhenItsHandlerReturns)
{
    ConnServer server;
    std::atomic<unsigned> served{0};
    server.start(0, [&](int fd, uint64_t id) {
        EXPECT_EQ(id, served.load());
        ::send(fd, "x", 1, MSG_NOSIGNAL);
        ++served; // returns without closing: the server does that
    });
    for (int i = 0; i < 3; ++i) {
        const int fd = connectTcp("127.0.0.1", server.port());
        EXPECT_EQ(drain(fd), 1u); // the byte, then EOF
        ::close(fd);
    }
    EXPECT_EQ(served.load(), 3u);
}

TEST(ConnServer, StopReturnsWhileAHandlerIsBlockedInRecv)
{
    ConnServer server;
    std::promise<void> entered;
    std::atomic<bool> returned{false};
    server.start(0, [&](int fd, uint64_t) {
        entered.set_value();
        char c;
        ::recv(fd, &c, 1, 0); // the client never sends
        returned = true;
    });
    const int fd = connectTcp("127.0.0.1", server.port());
    ASSERT_EQ(entered.get_future().wait_for(2s),
              std::future_status::ready);
    auto stopping = std::async(std::launch::async,
                               [&] { server.stop(); });
    EXPECT_EQ(stopping.wait_for(5s), std::future_status::ready);
    stopping.get();
    EXPECT_TRUE(returned.load());
    EXPECT_EQ(drain(fd), 0u); // shut down by stop()
    ::close(fd);
}

TEST(ConnServer, ConnectionAfterAStopRequestIsClosedUnserved)
{
    ConnServer server;
    std::atomic<unsigned> served{0};
    std::atomic<bool> stopRequested{false};
    startDraining(server, served, [&] { return stopRequested.load(); });

    const int before = connectTcp("127.0.0.1", server.port());
    ASSERT_TRUE(eventually([&] { return served.load() == 1; }));
    stopRequested = true;
    const int after = connectTcp("127.0.0.1", server.port());
    EXPECT_EQ(drain(after), 0u); // closed without a handler
    ::close(after);
    EXPECT_EQ(served.load(), 1u);

    server.stop();
    EXPECT_EQ(drain(before), 0u);
    ::close(before);
    // After stop() the listener is gone: nothing can connect.
    EXPECT_THROW(connectTcp("127.0.0.1", server.port()),
                 std::runtime_error);
}

TEST(ConnServer, MaxConnsBudgetStopsTheAcceptLoop)
{
    ConnServer server;
    std::atomic<unsigned> served{0};
    startDraining(server, served, {}, 2);
    int fds[3];
    for (int &fd : fds)
        fd = connectTcp("127.0.0.1", server.port());
    ASSERT_TRUE(eventually([&] { return served.load() == 2; }));
    std::this_thread::sleep_for(50ms);
    EXPECT_EQ(served.load(), 2u); // the third waits in the backlog
    server.stop();
    for (const int fd : fds) {
        drain(fd);
        ::close(fd);
    }
    EXPECT_EQ(served.load(), 2u);
}

TEST(ConnServer, StopIsIdempotentAndSafeFromTheDestructor)
{
    {
        ConnServer never; // destroyed without start()
    }
    std::atomic<unsigned> served{0};
    int fd = -1;
    {
        ConnServer server;
        startDraining(server, served);
        fd = connectTcp("127.0.0.1", server.port());
        ASSERT_TRUE(eventually([&] { return served.load() == 1; }));
        server.stop(SHUT_RD);
        server.stop();
        server.stop(SHUT_RDWR);
    } // ~ConnServer stops again
    EXPECT_EQ(drain(fd), 0u);
    ::close(fd);
    {
        ConnServer server; // live handler at destruction
        startDraining(server, served);
        fd = connectTcp("127.0.0.1", server.port());
        ASSERT_TRUE(eventually([&] { return served.load() == 2; }));
    }
    EXPECT_EQ(drain(fd), 0u);
    ::close(fd);
}

TEST(ConnServer, ConnectCloseCyclesRacingStop)
{
    ConnServer server;
    std::atomic<unsigned> entered{0};
    std::atomic<unsigned> left{0};
    server.start(0, [&](int fd, uint64_t) {
        ++entered;
        drain(fd);
        ++left;
    });
    const uint16_t port = server.port();
    std::atomic<unsigned> cycles{0};
    std::thread client([&] {
        for (int i = 0; i < 200; ++i) {
            try {
                const int fd = connectTcp("127.0.0.1", port);
                if (i % 2)
                    ::send(fd, "ping", 4, MSG_NOSIGNAL);
                ::close(fd);
            } catch (const std::runtime_error &) {
                // refused once stop() closed the listener
            }
            ++cycles;
        }
    });
    // Stop mid-stream, once some connections were served.
    EXPECT_TRUE(eventually(
        [&] { return entered.load() > 0 && cycles.load() >= 100; }));
    server.stop();
    client.join();
    EXPECT_EQ(cycles.load(), 200u);
    EXPECT_EQ(left.load(), entered.load()); // every handler joined
}

} // namespace
