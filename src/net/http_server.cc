#include "net/http_server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "util/strings.h"

namespace gva::net {

namespace {

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

StatusOr<std::unique_ptr<HttpServer>> HttpServer::Listen(
    const HttpServerOptions& options) {
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (::inet_pton(AF_INET, options.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return Status::InvalidArgument("bad bind address '" +
                                   options.bind_address + "'");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IoError("socket(2) failed");
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return Status::IoError(StrFormat("cannot bind port %u on %s",
                                     static_cast<unsigned>(options.port),
                                     options.bind_address.c_str()));
  }
  if (::listen(fd, 64) != 0 || !SetNonBlocking(fd)) {
    ::close(fd);
    return Status::IoError("listen(2) failed");
  }
  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    ::close(fd);
    return Status::IoError("getsockname(2) failed");
  }
  int wake[2];
  if (::pipe(wake) != 0) {
    ::close(fd);
    return Status::IoError("self-pipe failed");
  }
  return std::unique_ptr<HttpServer>(new HttpServer(
      options, fd, wake[0], wake[1], ntohs(bound.sin_port)));
}

HttpServer::HttpServer(const HttpServerOptions& options, int listen_fd,
                       int wake_read_fd, int wake_write_fd, uint16_t port)
    : options_(options),
      listen_fd_(listen_fd),
      wake_read_fd_(wake_read_fd),
      wake_write_fd_(wake_write_fd),
      port_(port) {}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::Start(Handler handler) {
  handler_ = std::move(handler);
  thread_ = std::thread([this] { EventLoop(); });
}

void HttpServer::Stop() {
  if (stopping_.exchange(true)) {
    return;
  }
  const ssize_t poked = ::write(wake_write_fd_, "q", 1);
  (void)poked;  // a full pipe still wakes the 250 ms poll timeout
  if (thread_.joinable()) {
    thread_.join();
  }
  ::close(listen_fd_);
  ::close(wake_read_fd_);
  ::close(wake_write_fd_);
}

void HttpServer::EventLoop() {
  std::vector<Connection> connections;
  while (!stopping_.load(std::memory_order_relaxed)) {
    std::vector<pollfd> fds;
    fds.reserve(connections.size() + 2);
    const bool can_accept = connections.size() < options_.max_connections;
    fds.push_back(
        pollfd{listen_fd_, static_cast<short>(can_accept ? POLLIN : 0), 0});
    fds.push_back(pollfd{wake_read_fd_, static_cast<short>(POLLIN), 0});
    for (const Connection& connection : connections) {
      short events = static_cast<short>(POLLIN);
      if (!connection.out.empty()) {
        events = static_cast<short>(events | POLLOUT);
      }
      fds.push_back(pollfd{connection.fd, events, 0});
    }
    // The 250 ms timeout backstops a lost wakeup and paces the
    // kRequestTimeout sweep below; the self-pipe is the fast path.
    const int ready =
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 250);
    if (ready < 0) {
      continue;  // EINTR; re-check the stop flag
    }
    if ((fds[1].revents & POLLIN) != 0) {
      break;  // Stop() poked the pipe
    }
    // Connections polled this round; AcceptConnections grows the vector
    // past this count, and the newcomers have no fds entry yet — they are
    // serviced next iteration, once polled.
    const size_t polled = connections.size();
    if ((fds[0].revents & POLLIN) != 0) {
      AcceptConnections(&connections);
    }
    const auto stalled_since =
        std::chrono::steady_clock::now() - kRequestTimeout;
    std::vector<Connection> live;
    live.reserve(connections.size());
    for (size_t i = 0; i < connections.size(); ++i) {
      Connection& connection = connections[i];
      if (i >= polled) {
        live.push_back(std::move(connection));
        continue;
      }
      const short revents = fds[i + 2].revents;
      bool alive = (revents & (POLLERR | POLLNVAL)) == 0;
      if (alive && (revents & (POLLIN | POLLHUP)) != 0) {
        alive = ServiceReadable(&connection);
      }
      if (alive && (revents & POLLOUT) != 0) {
        alive = ServiceWritable(&connection);
      }
      if (alive && connection.out.empty() && connection.close_after_write) {
        alive = false;
      }
      // Waiting on the client for a request it has not finished (or begun)
      // for too long: drop it.
      if (alive && connection.out.empty() &&
          (!connection.answered || connection.parser.buffered_bytes() > 0) &&
          connection.last_read < stalled_since) {
        alive = false;
      }
      if (alive) {
        live.push_back(std::move(connection));
      } else {
        ::close(connection.fd);
      }
    }
    connections = std::move(live);
  }
  DrainPendingWrites(&connections);
}

void HttpServer::AcceptConnections(std::vector<Connection>* connections) {
  while (connections->size() < options_.max_connections) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      return;  // EAGAIN (drained) or transient accept failure
    }
    if (!SetNonBlocking(fd)) {
      ::close(fd);
      continue;
    }
    Connection connection;
    connection.fd = fd;
    connection.parser = HttpParser(options_.http_limits);
    connection.last_read = std::chrono::steady_clock::now();
    connections->push_back(std::move(connection));
  }
}

bool HttpServer::ServiceReadable(Connection* connection) {
  char buf[8192];
  while (true) {
    const ssize_t n = ::read(connection->fd, buf, sizeof(buf));
    if (n > 0) {
      connection->last_read = std::chrono::steady_clock::now();
      connection->parser.Feed(std::string_view(buf, static_cast<size_t>(n)));
      if (static_cast<size_t>(n) < sizeof(buf)) {
        break;  // short read: the socket is drained for now
      }
      continue;
    }
    if (n == 0) {
      // Peer EOF. Serve whatever complete requests are buffered, then drop.
      connection->close_after_write = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    }
    if (errno == EINTR) {
      continue;
    }
    return false;  // connection reset
  }

  // Drain every complete pipelined request in arrival order.
  while (true) {
    const HttpParser::State state = connection->parser.Parse();
    if (state == HttpParser::State::kNeedMore) {
      break;
    }
    if (state == HttpParser::State::kError) {
      HttpResponse error;
      error.status = connection->parser.error_status();
      error.body = connection->parser.error_reason() + "\n";
      connection->out += SerializeResponse(error);
      connection->close_after_write = true;
      break;
    }
    HttpResponse response = handler_(connection->parser.request());
    connection->parser.ConsumeRequest();
    connection->answered = true;
    if (!response.keep_alive) {
      connection->close_after_write = true;
    }
    connection->out += SerializeResponse(response);
    if (connection->close_after_write) {
      break;
    }
  }
  // Opportunistic flush: the common response fits the socket buffer and
  // never needs a POLLOUT round trip.
  return ServiceWritable(connection);
}

bool HttpServer::ServiceWritable(Connection* connection) {
  while (!connection->out.empty()) {
    const ssize_t n =
        ::send(connection->fd, connection->out.data(),
               connection->out.size(), MSG_NOSIGNAL);
    if (n > 0) {
      connection->out.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;  // wait for POLLOUT
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return false;  // peer gone
  }
  return true;
}

void HttpServer::DrainPendingWrites(std::vector<Connection>* connections) {
  // Best-effort flush so a response queued just before Stop() — the admin
  // shutdown acknowledgement in particular — still reaches the client.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
  for (Connection& connection : *connections) {
    while (!connection.out.empty() &&
           std::chrono::steady_clock::now() < deadline) {
      pollfd pfd{connection.fd, static_cast<short>(POLLOUT), 0};
      if (::poll(&pfd, 1, 50) <= 0) {
        continue;
      }
      if (!ServiceWritable(&connection)) {
        break;
      }
    }
    ::close(connection.fd);
  }
  connections->clear();
}

}  // namespace gva::net
