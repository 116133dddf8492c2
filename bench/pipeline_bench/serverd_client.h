#ifndef GVA_BENCH_PIPELINE_BENCH_SERVERD_CLIENT_H_
#define GVA_BENCH_PIPELINE_BENCH_SERVERD_CLIENT_H_

// The serverd_jobs workload's side of the socket: a gva_serverd child
// process and a blocking keep-alive HTTP/1.1 client connection. Written
// against the wire format only, not src/net, so a parser bug in the daemon
// cannot cancel out on the client side.

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>

#include "util/statusor.h"

namespace gva::bench {

/// One running `gva_serverd --port 0 --quiet`. The destructor kills and
/// reaps a daemon that was not shut down, so no child outlives the bench.
class ServerdProcess {
 public:
  /// Spawns the daemon and returns once it printed its listening line.
  static StatusOr<std::unique_ptr<ServerdProcess>> Spawn(
      const std::string& path);

  ~ServerdProcess();
  ServerdProcess(const ServerdProcess&) = delete;
  ServerdProcess& operator=(const ServerdProcess&) = delete;

  uint16_t port() const { return port_; }

  /// Reads the daemon's peak resident set in MiB, then posts
  /// /v1/admin/shutdown and waits for the process to exit.
  StatusOr<double> Shutdown();

 private:
  ServerdProcess(pid_t pid, int stdout_fd, uint16_t port)
      : pid_(pid), stdout_fd_(stdout_fd), port_(port) {}

  pid_t pid_;
  int stdout_fd_;
  uint16_t port_;
};

struct HttpReply {
  int status = 0;
  std::string body;
};

/// One keep-alive connection to 127.0.0.1:port. Requests are sequential.
class HttpConnection {
 public:
  static StatusOr<std::unique_ptr<HttpConnection>> Connect(uint16_t port);

  ~HttpConnection();
  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  /// Sends one request and reads its response. Transport errors and
  /// malformed responses are an error status; any HTTP status is a reply.
  StatusOr<HttpReply> Request(const std::string& method,
                              const std::string& target,
                              const std::string& body = std::string());

 private:
  explicit HttpConnection(int fd) : fd_(fd) {}

  int fd_;
  std::string buffer_;  // bytes read past the previous response
};

}  // namespace gva::bench

#endif  // GVA_BENCH_PIPELINE_BENCH_SERVERD_CLIENT_H_
