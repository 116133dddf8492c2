#ifndef GVA_NET_HTTP_SERVER_H_
#define GVA_NET_HTTP_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/http.h"
#include "util/statusor.h"

namespace gva::net {

/// Address and limits of one HttpServer listener.
struct HttpServerOptions {
  /// TCP port; 0 asks the kernel for an ephemeral one (read it back from
  /// port()).
  uint16_t port = 0;
  /// Loopback by default: both daemons speak plaintext, unauthenticated.
  std::string bind_address = "127.0.0.1";
  /// Cap on simultaneously open connections; the listener stops accepting
  /// (clients queue in the kernel backlog) while at the cap.
  size_t max_connections = 64;
  HttpParser::Limits http_limits;
};

/// The HTTP/1.1 event loop every daemon in the tree shares (gva_serverd's
/// AnomalyServer and the embedded obs::TelemetryServer): one thread, one
/// poll() over the listener, a self-pipe for Stop(), and every live
/// connection. Sockets are non-blocking; bytes go through an HttpParser per
/// connection, each complete request is answered by the handler, and
/// responses are written as the socket accepts them (POLLOUT is armed only
/// while one is pending). Pipelined requests are answered in arrival order.
///
/// A connection is closed after its response when the handler's
/// HttpResponse::keep_alive is false, after a parse error (answered with
/// the parser's status first), and when it stalls a request: see
/// kRequestTimeout.
class HttpServer {
 public:
  /// Answers one parsed request. Runs on the loop thread, so it must not
  /// block on work that takes longer than a scrape.
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  /// A connection that has sent nothing since it was accepted, or is part
  /// way through a request, and then stays silent this long is closed, so
  /// a stalled client costs one connection slot for a bounded time.
  /// Keep-alive connections idle between complete requests stay open.
  static constexpr std::chrono::seconds kRequestTimeout{2};

  /// Creates, binds and listens on the socket; the loop starts with
  /// Start(). Fails with kInvalidArgument on an unparsable address and
  /// kIoError when the port is taken.
  static StatusOr<std::unique_ptr<HttpServer>> Listen(
      const HttpServerOptions& options);

  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Starts the loop thread, which answers every request with `handler`.
  /// Call at most once.
  void Start(Handler handler);

  /// Wakes the loop, flushes pending responses briefly, joins the thread
  /// and closes every socket. Idempotent.
  void Stop();

  /// The bound port (the kernel's choice when options.port was 0).
  uint16_t port() const { return port_; }

 private:
  struct Connection {
    int fd = -1;
    HttpParser parser;
    std::string out;  ///< serialized responses awaiting POLLOUT
    bool close_after_write = false;
    bool answered = false;  ///< at least one response was queued
    std::chrono::steady_clock::time_point last_read;
  };

  HttpServer(const HttpServerOptions& options, int listen_fd,
             int wake_read_fd, int wake_write_fd, uint16_t port);

  void EventLoop();
  void AcceptConnections(std::vector<Connection>* connections);
  /// Reads, parses, handles, and queues responses for one connection.
  /// Returns false when the connection should be dropped immediately.
  bool ServiceReadable(Connection* connection);
  bool ServiceWritable(Connection* connection);
  /// Best-effort flush of pending responses at shutdown.
  void DrainPendingWrites(std::vector<Connection>* connections);

  const HttpServerOptions options_;
  const int listen_fd_;
  const int wake_read_fd_;  ///< self-pipe: Stop() wakes the poll loop
  const int wake_write_fd_;
  const uint16_t port_;
  Handler handler_;
  std::atomic<bool> stopping_{false};
  std::thread thread_;
};

}  // namespace gva::net

#endif  // GVA_NET_HTTP_SERVER_H_
