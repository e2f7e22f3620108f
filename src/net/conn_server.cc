#include "conn_server.hh"

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <unistd.h>

namespace wlcrc::net
{

namespace
{

void
setNoDelay(int fd)
{
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

} // namespace

int
connectTcp(const std::string &host, uint16_t port)
{
    const std::string where = host + ":" + std::to_string(port);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
        throw std::runtime_error("cannot connect " + where +
                                 ": not an IPv4 address");
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                            sizeof addr) != 0) {
        const int err = errno;
        if (fd >= 0)
            ::close(fd);
        throw std::runtime_error("cannot connect " + where + ": " +
                                 std::strerror(err));
    }
    setNoDelay(fd);
    return fd;
}

void
ConnServer::start(uint16_t port, Handler handler,
                  StopRequested stopRequested, unsigned maxConns)
{
    handler_ = std::move(handler);
    stopRequested_ = std::move(stopRequested);
    maxConns_ = maxConns;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    const int one = 1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    socklen_t len = sizeof addr;
    if (fd < 0 ||
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one) ||
        ::bind(fd, reinterpret_cast<sockaddr *>(&addr), len) ||
        ::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len) ||
        ::listen(fd, 128)) {
        const int err = errno;
        if (fd >= 0)
            ::close(fd);
        throw std::runtime_error("cannot bind 127.0.0.1:" +
                                 std::to_string(port) + ": " +
                                 std::strerror(err));
    }
    listenFd_ = fd;
    port_ = ntohs(addr.sin_port);
    acceptThread_ = std::thread([this] { acceptLoop(); });
}

void
ConnServer::acceptLoop()
{
    for (;;) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // listener shut down by stop()
        }
        setNoDelay(fd);
        const bool refused = stopRequested_ && stopRequested_();
        std::lock_guard lock(mutex_);
        // Join finished handlers, so a long-lived server keeps no
        // exited thread per past connection.
        for (auto it = conns_.begin(); it != conns_.end();)
            if (it->second.done) {
                it->second.thread.join();
                it = conns_.erase(it);
            } else {
                ++it;
            }
        if (refused || stopping_) {
            ::close(fd);
            continue;
        }
        const uint64_t id = nextId_++;
        Conn &conn = conns_[id];
        conn.fd = fd;
        conn.thread = std::thread([this, fd, id] {
            handler_(fd, id);
            // Closed under the lock stop() shuts fds down under, so
            // stop() never shuts down a recycled fd number.
            std::lock_guard closeLock(mutex_);
            ::close(fd);
            conns_.at(id).done = true;
        });
        if (maxConns_ && nextId_ >= maxConns_)
            return; // served the configured connection budget
    }
}

void
ConnServer::stop(int firstHow)
{
    {
        std::lock_guard lock(mutex_);
        if (std::exchange(stopping_, true))
            return;
        for (auto &[id, conn] : conns_)
            if (!conn.done)
                ::shutdown(conn.fd, firstHow);
    }
    // Close the listener only after the accept thread has exited, so
    // that thread never reads a reset or reused fd number.
    if (listenFd_ >= 0) {
        ::shutdown(listenFd_, SHUT_RDWR);
        acceptThread_.join();
        ::close(listenFd_);
        listenFd_ = -1;
    }
    // The registry is final now. SHUT_RDWR also frees a handler
    // blocked sending to a peer that stopped reading.
    {
        std::lock_guard lock(mutex_);
        for (auto &[id, conn] : conns_)
            if (!conn.done)
                ::shutdown(conn.fd, SHUT_RDWR);
    }
    for (auto &[id, conn] : conns_)
        conn.thread.join();
    conns_.clear();
}

} // namespace wlcrc::net
