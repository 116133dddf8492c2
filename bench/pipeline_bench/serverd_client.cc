#include "serverd_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <thread>
#include <vector>

namespace gva::bench {

namespace {

constexpr int kStartupTimeoutMs = 10000;
constexpr auto kExitTimeout = std::chrono::seconds(10);

/// Reads one '\n'-terminated line from `fd`, waiting at most `timeout_ms`.
StatusOr<std::string> ReadLine(int fd, int timeout_ms) {
  std::string line;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (true) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) {
      return Status::IoError("gva_serverd printed no listening line");
    }
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) {
      continue;
    }
    char c = 0;
    const ssize_t n = ::read(fd, &c, 1);
    if (n <= 0) {
      return Status::IoError("gva_serverd exited before listening");
    }
    if (c == '\n') {
      return line;
    }
    line.push_back(c);
  }
}

}  // namespace

StatusOr<std::unique_ptr<ServerdProcess>> ServerdProcess::Spawn(
    const std::string& path) {
  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0) {
    return Status::IoError("pipe2 failed");
  }
  std::vector<std::string> args = {path, "--port", "0", "--quiet"};
  std::vector<char*> argv;
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  // vfork: no copy of the bench's page tables (fork's copy would cost time
  // proportional to the bench's memory). The child makes only system calls
  // on prepared arguments until exec. PDEATHSIG kills the daemon if the
  // bench dies first, so no run leaves it behind.
  const pid_t pid = ::vfork();
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) {
      ::_exit(127);
    }
    ::dup2(out[1], STDOUT_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(out[1]);
  if (pid < 0) {
    ::close(out[0]);
    return Status::IoError("cannot vfork for " + path);
  }
  // From here on the process object owns the child, so every error path
  // below still kills and reaps it.
  std::unique_ptr<ServerdProcess> process(new ServerdProcess(pid, out[0], 0));
  GVA_ASSIGN_OR_RETURN(std::string line, ReadLine(out[0], kStartupTimeoutMs));
  const size_t colon = line.rfind(':');
  const long port =
      colon == std::string::npos ? 0 : std::strtol(line.c_str() + colon + 1,
                                                   nullptr, 10);
  if (line.find("listening on") == std::string::npos || port <= 0 ||
      port > 65535) {
    return Status::Internal("unexpected gva_serverd banner: " + line);
  }
  process->port_ = static_cast<uint16_t>(port);
  return process;
}

ServerdProcess::~ServerdProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  ::close(stdout_fd_);
}

StatusOr<double> ServerdProcess::Shutdown() {
  // VmHWM is the peak of the daemon's own address space. The exit status's
  // ru_maxrss would not do: exec keeps the high-water mark of the address
  // space the child was cloned from, which is the bench's.
  double peak_mib = -1.0;
  {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    for (std::string line; std::getline(status, line);) {
      if (line.rfind("VmHWM:", 0) == 0) {
        peak_mib = std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
      }
    }
  }
  if (peak_mib < 0.0) {
    return Status::IoError("cannot read the VmHWM of gva_serverd");
  }
  {
    GVA_ASSIGN_OR_RETURN(std::unique_ptr<HttpConnection> connection,
                         HttpConnection::Connect(port_));
    GVA_ASSIGN_OR_RETURN(HttpReply reply,
                         connection->Request("POST", "/v1/admin/shutdown"));
    if (reply.status != 202) {
      return Status::Internal("shutdown answered " +
                              std::to_string(reply.status));
    }
  }
  const auto deadline = std::chrono::steady_clock::now() + kExitTimeout;
  int wait_status = 0;
  while (true) {
    const pid_t reaped = ::waitpid(pid_, &wait_status, WNOHANG);
    if (reaped == pid_) {
      break;
    }
    if (reaped < 0 || std::chrono::steady_clock::now() > deadline) {
      return Status::IoError("gva_serverd did not exit");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  if (!WIFEXITED(wait_status) || WEXITSTATUS(wait_status) != 0) {
    return Status::Internal("gva_serverd exited abnormally");
  }
  return peak_mib;
}

StatusOr<std::unique_ptr<HttpConnection>> HttpConnection::Connect(
    uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IoError("socket failed");
  }
  std::unique_ptr<HttpConnection> connection(new HttpConnection(fd));
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::IoError("connect to 127.0.0.1:" + std::to_string(port) +
                           " failed");
  }
  return connection;
}

HttpConnection::~HttpConnection() { ::close(fd_); }

StatusOr<HttpReply> HttpConnection::Request(const std::string& method,
                                            const std::string& target,
                                            const std::string& body) {
  std::string request =
      method + " " + target + " HTTP/1.1\r\nHost: localhost\r\n";
  if (method == "POST" || !body.empty()) {
    request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  request += "\r\n";
  request += body;
  for (size_t off = 0; off < request.size();) {
    const ssize_t n = ::send(fd_, request.data() + off, request.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      return Status::IoError("send failed");
    }
    off += static_cast<size_t>(n);
  }

  auto fill = [this]() -> Status {
    char chunk[65536];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n <= 0) {
      return Status::IoError("connection closed mid-response");
    }
    buffer_.append(chunk, static_cast<size_t>(n));
    return Status::Ok();
  };
  size_t header_end = std::string::npos;
  while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
    GVA_RETURN_IF_ERROR(fill());
  }
  if (buffer_.rfind("HTTP/1.1 ", 0) != 0) {
    return Status::Internal("malformed status line");
  }
  HttpReply reply;
  reply.status = std::atoi(buffer_.c_str() + 9);
  size_t content_length = 0;
  bool have_length = false;
  for (size_t cursor = buffer_.find("\r\n") + 2; cursor < header_end;) {
    const size_t next = buffer_.find("\r\n", cursor);
    std::string line = buffer_.substr(cursor, next - cursor);
    cursor = next + 2;
    for (char& c : line) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    if (line.rfind("content-length:", 0) == 0) {
      content_length = std::strtoul(line.c_str() + 15, nullptr, 10);
      have_length = true;
    }
  }
  if (!have_length) {
    return Status::Internal("response without Content-Length");
  }
  const size_t body_start = header_end + 4;
  while (buffer_.size() < body_start + content_length) {
    GVA_RETURN_IF_ERROR(fill());
  }
  reply.body = buffer_.substr(body_start, content_length);
  buffer_.erase(0, body_start + content_length);
  return reply;
}

}  // namespace gva::bench
