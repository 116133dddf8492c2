#ifndef GVA_NET_HTTP_H_
#define GVA_NET_HTTP_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gva::net {

/// One parsed HTTP/1.x request. `target` is the raw request target as sent;
/// `path` is the normalized routing key (query string and fragment
/// stripped), `query` the raw query string without the '?'. Routing on
/// anything but `path` is a bug — a scraper appending `?x=1` must hit the
/// same route (the PR 9 telemetry server got this right only inside its own
/// handler; the normalization now lives here so every daemon shares it).
struct HttpRequest {
  std::string method;
  std::string target;
  std::string path;
  std::string query;
  /// Header fields in arrival order, names lowercased (field names are
  /// case-insensitive per RFC 9110; values are kept verbatim, trimmed).
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// First header with the given (lowercase) name, or nullptr.
  const std::string* FindHeader(std::string_view name) const;
};

/// One response about to be serialized. `extra_headers` carries
/// route-specific fields (e.g. Retry-After on a 429).
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  std::vector<std::pair<std::string, std::string>> extra_headers;
  /// When false the serializer emits `Connection: close` and the server
  /// drops the connection after writing.
  bool keep_alive = false;
};

/// Reason phrase for the status codes the daemons emit.
const char* HttpStatusText(int status);

/// Serializes status line + Content-Type/Content-Length/Connection +
/// extra headers + body.
std::string SerializeResponse(const HttpResponse& response);

/// Splits a request target into (path, query), dropping any fragment: the
/// shared normalization both daemons route on.
void NormalizeTarget(std::string_view target, std::string* path,
                     std::string* query);

/// Value of `key` in a normalized query string ("a=1&b=2"), or empty when
/// absent (an empty value and an absent key are indistinguishable — the
/// daemons' parameters are all non-empty). No percent-decoding: the
/// accepted parameter values (tenant names, numbers) never need it.
std::string QueryParam(std::string_view query, std::string_view key);

/// Incremental HTTP/1.x request parser, built for a poll() loop: bytes
/// arrive in arbitrary fragments across wakeups, several pipelined
/// requests may sit in one read, and a hostile peer may send unbounded
/// headers. Feed() appends bytes; Parse() advances the state machine:
///
///   kNeedMore  — incomplete; feed more bytes and call Parse() again
///   kComplete  — request() is valid; ConsumeRequest() drops its bytes
///                (keeping any pipelined remainder) and re-arms
///   kError     — protocol violation; error_status() is the HTTP status
///                to answer with (400 malformed, 413 body too large,
///                431 headers too large) before closing
///
/// The parser is deliberately small: no chunked transfer encoding (a
/// Transfer-Encoding header is answered 400 — jobs are submitted with a
/// known Content-Length), no continuation lines, CRLF or bare LF line
/// endings.
class HttpParser {
 public:
  enum class State { kNeedMore, kComplete, kError };

  struct Limits {
    /// Request line + headers; 431 beyond this without a blank line.
    size_t max_header_bytes = 16 * 1024;
    /// Declared Content-Length ceiling; 413 beyond. Inline series are the
    /// big payload: 8 MiB holds ~400k points of JSON doubles.
    size_t max_body_bytes = 8 * 1024 * 1024;
  };

  HttpParser() : HttpParser(Limits{}) {}
  explicit HttpParser(const Limits& limits) : limits_(limits) {}

  /// Appends raw bytes from the socket.
  void Feed(std::string_view bytes) { buffer_.append(bytes); }

  /// Attempts to parse one complete request from the front of the buffer.
  State Parse();

  /// The parsed request; valid only after Parse() returned kComplete.
  const HttpRequest& request() const { return request_; }

  /// Drops the parsed request's bytes, keeps pipelined leftovers, and
  /// resets the state machine for the next request.
  void ConsumeRequest();

  /// HTTP status to answer with after kError.
  int error_status() const { return error_status_; }
  const std::string& error_reason() const { return error_reason_; }

  /// Unparsed bytes currently buffered.
  size_t buffered_bytes() const { return buffer_.size(); }

 private:
  State Fail(int status, std::string reason);

  Limits limits_;
  std::string buffer_;
  HttpRequest request_;
  /// Bytes of `buffer_` owned by the parsed request (headers + body).
  size_t consumed_ = 0;
  /// Offset of the body within `buffer_` once headers parsed; 0 = headers
  /// not yet parsed.
  size_t body_offset_ = 0;
  size_t content_length_ = 0;
  bool headers_done_ = false;
  int error_status_ = 0;
  std::string error_reason_;
};

}  // namespace gva::net

#endif  // GVA_NET_HTTP_H_
