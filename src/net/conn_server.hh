/**
 * @file
 * The one loopback connection server, under both the live service
 * (serve/server.hh) and the distributed-sweep head (runner/remote.hh):
 * one accept thread, one handler thread per connection. It owns
 * every fd it hands out and keeps the fd rule of
 * docs/architecture.md#connections: shutdown, join, then close.
 */

#ifndef WLCRC_NET_CONN_SERVER_HH
#define WLCRC_NET_CONN_SERVER_HH

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include <sys/socket.h>

namespace wlcrc::net
{

/**
 * Connect to @p host (dotted IPv4) : @p port with TCP_NODELAY set.
 * @throws std::runtime_error naming host:port and strerror.
 */
int connectTcp(const std::string &host, uint16_t port);

/** Loopback TCP listener with one handler thread per connection. */
class ConnServer
{
  public:
    /** Serves one connection (ids count from 0); never closes @p fd. */
    using Handler = std::function<void(int fd, uint64_t id)>;
    /** True: close a newly accepted connection unserved. */
    using StopRequested = std::function<bool()>;

    ConnServer() = default;
    ~ConnServer() { stop(); }
    ConnServer(const ConnServer &) = delete;
    ConnServer &operator=(const ConnServer &) = delete;

    /**
     * Bind 127.0.0.1:@p port (0 = ephemeral), listen, start
     * accepting; once, before stop(). After @p maxConns served
     * connections (0 = no limit) the accept loop ends.
     * @throws std::runtime_error "cannot bind 127.0.0.1:P: ...".
     */
    void start(uint16_t port, Handler handler,
               StopRequested stopRequested = {},
               unsigned maxConns = 0);

    /** Bound port (the ephemeral one when started with 0). */
    uint16_t port() const { return port_; }

    /**
     * Shut live connections down with @p firstHow, close the
     * listener, then shut every connection down with SHUT_RDWR, join
     * its handler and close its fd. With SHUT_RD a handler keeps its
     * write side to send a farewell frame as it leaves. Only the
     * first call does anything (call it from one thread).
     */
    void stop(int firstHow = SHUT_RDWR);

  private:
    struct Conn
    {
        int fd = -1;
        std::thread thread;
        bool done = false; //!< handler returned, fd closed
    };

    void acceptLoop();

    Handler handler_;
    StopRequested stopRequested_;
    unsigned maxConns_ = 0;
    int listenFd_ = -1;
    uint16_t port_ = 0;
    std::thread acceptThread_;

    std::mutex mutex_; //!< guards the registry and every fd close
    bool stopping_ = false; //!< stop() ran: refuse new connections
    uint64_t nextId_ = 0;
    std::map<uint64_t, Conn> conns_;
};

} // namespace wlcrc::net

#endif // WLCRC_NET_CONN_SERVER_HH
