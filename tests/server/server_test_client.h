#ifndef GVA_TESTS_SERVER_SERVER_TEST_CLIENT_H_
#define GVA_TESTS_SERVER_SERVER_TEST_CLIENT_H_

/// Raw-socket HTTP test client for the gva_serverd integration suites. One
/// request per connection (it sends `Connection: close` and reads to EOF),
/// deliberately independent of src/net so a server-side parser bug cannot
/// cancel out in the tests.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace gva::testing {

struct TestHttpResponse {
  /// Transport-level success: connected, wrote the request, read a
  /// well-formed status line.
  bool ok = false;
  int status = 0;
  /// Header names lowercased.
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  const std::string* FindHeader(const std::string& name) const {
    for (const auto& [key, value] : headers) {
      if (key == name) {
        return &value;
      }
    }
    return nullptr;
  }
};

/// Connected TCP socket to 127.0.0.1:port, or -1.
inline int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Sends one HTTP/1.1 request to 127.0.0.1:port and reads the full
/// response. `extra_headers` are appended verbatim ("Name: value" pairs).
inline TestHttpResponse SendHttpRequest(
    uint16_t port, const std::string& method, const std::string& target,
    const std::string& body = std::string(),
    const std::vector<std::pair<std::string, std::string>>& extra_headers =
        {}) {
  TestHttpResponse out;
  const int fd = ConnectLoopback(port);
  if (fd < 0) {
    return out;
  }

  std::string request = method + " " + target + " HTTP/1.1\r\n";
  request += "Host: localhost\r\n";
  for (const auto& [name, value] : extra_headers) {
    request += name + ": " + value + "\r\n";
  }
  if (!body.empty() || method == "POST" || method == "PUT") {
    request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  request += "Connection: close\r\n\r\n";
  request += body;

  size_t off = 0;
  while (off < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + off, request.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return out;
    }
    off += static_cast<size_t>(n);
  }

  std::string raw;
  char buf[8192];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) {
      break;
    }
    raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);

  // Status line: HTTP/1.1 NNN reason
  const size_t line_end = raw.find("\r\n");
  if (line_end == std::string::npos || raw.rfind("HTTP/1.", 0) != 0) {
    return out;
  }
  const size_t space = raw.find(' ');
  if (space == std::string::npos || space + 4 > line_end) {
    return out;
  }
  out.status = std::atoi(raw.c_str() + space + 1);

  const size_t header_end = raw.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    return out;
  }
  size_t cursor = line_end + 2;
  while (cursor < header_end) {
    size_t next = raw.find("\r\n", cursor);
    if (next == std::string::npos || next > header_end) {
      next = header_end;
    }
    const std::string line = raw.substr(cursor, next - cursor);
    cursor = next + 2;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) {
      continue;
    }
    std::string name = line.substr(0, colon);
    for (char& c : name) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    size_t value_start = colon + 1;
    while (value_start < line.size() && line[value_start] == ' ') {
      ++value_start;
    }
    out.headers.emplace_back(std::move(name), line.substr(value_start));
  }
  out.body = raw.substr(header_end + 4);
  out.ok = true;
  return out;
}

inline TestHttpResponse HttpGet(uint16_t port, const std::string& target) {
  return SendHttpRequest(port, "GET", target);
}

}  // namespace gva::testing

#endif  // GVA_TESTS_SERVER_SERVER_TEST_CLIENT_H_
