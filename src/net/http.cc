#include "net/http.h"

#include <algorithm>
#include <cctype>
#include <cstdint>

#include "util/strings.h"

namespace gva::net {

namespace {

std::string ToLower(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

/// Finds the end of the header block: the first blank line. Accepts CRLF
/// and bare LF. Returns npos while incomplete; sets `*body_start` to the
/// offset just past the blank line on success.
size_t FindHeaderEnd(std::string_view buffer, size_t* body_start) {
  const size_t crlf = buffer.find("\r\n\r\n");
  const size_t lf = buffer.find("\n\n");
  if (crlf == std::string_view::npos && lf == std::string_view::npos) {
    return std::string_view::npos;
  }
  if (crlf != std::string_view::npos &&
      (lf == std::string_view::npos || crlf < lf)) {
    *body_start = crlf + 4;
    return crlf;
  }
  *body_start = lf + 2;
  return lf;
}

/// Strict non-negative decimal parse for Content-Length: digits only, no
/// sign, no whitespace beyond the trim, overflow rejected.
bool ParseContentLength(std::string_view text, size_t* out) {
  if (text.empty()) {
    return false;
  }
  size_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      return false;
    }
    const size_t digit = static_cast<size_t>(c - '0');
    if (value > (SIZE_MAX - digit) / 10) {
      return false;
    }
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

}  // namespace

const std::string* HttpRequest::FindHeader(std::string_view name) const {
  for (const auto& [key, value] : headers) {
    if (key == name) {
      return &value;
    }
  }
  return nullptr;
}

const char* HttpStatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 201:
      return "Created";
    case 202:
      return "Accepted";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 409:
      return "Conflict";
    case 413:
      return "Payload Too Large";
    case 429:
      return "Too Many Requests";
    case 431:
      return "Request Header Fields Too Large";
    case 503:
      return "Service Unavailable";
    default:
      return "Internal Server Error";
  }
}

std::string SerializeResponse(const HttpResponse& response) {
  std::string out = StrFormat(
      "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %zu\r\n",
      response.status, HttpStatusText(response.status),
      response.content_type.c_str(), response.body.size());
  for (const auto& [name, value] : response.extra_headers) {
    out += name;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  out += response.keep_alive ? "Connection: keep-alive\r\n\r\n"
                             : "Connection: close\r\n\r\n";
  out += response.body;
  return out;
}

void NormalizeTarget(std::string_view target, std::string* path,
                     std::string* query) {
  // A fragment is client-side state; a proxy that forwards one anyway must
  // not change routing.
  const size_t hash = target.find('#');
  if (hash != std::string_view::npos) {
    target = target.substr(0, hash);
  }
  const size_t question = target.find('?');
  if (question == std::string_view::npos) {
    path->assign(target);
    query->clear();
  } else {
    path->assign(target.substr(0, question));
    query->assign(target.substr(question + 1));
  }
}

std::string QueryParam(std::string_view query, std::string_view key) {
  size_t start = 0;
  while (start <= query.size()) {
    size_t amp = query.find('&', start);
    if (amp == std::string_view::npos) {
      amp = query.size();
    }
    const std::string_view pair = query.substr(start, amp - start);
    start = amp + 1;
    const size_t eq = pair.find('=');
    const std::string_view name =
        eq == std::string_view::npos ? pair : pair.substr(0, eq);
    if (name == key) {
      return eq == std::string_view::npos ? std::string()
                                          : std::string(pair.substr(eq + 1));
    }
  }
  return std::string();
}

HttpParser::State HttpParser::Fail(int status, std::string reason) {
  error_status_ = status;
  error_reason_ = std::move(reason);
  return State::kError;
}

HttpParser::State HttpParser::Parse() {
  if (error_status_ != 0) {
    return State::kError;
  }
  if (!headers_done_) {
    size_t body_start = 0;
    const size_t header_end = FindHeaderEnd(buffer_, &body_start);
    if (header_end == std::string::npos) {
      if (buffer_.size() > limits_.max_header_bytes) {
        return Fail(431, "header block exceeds limit");
      }
      return State::kNeedMore;
    }
    if (header_end > limits_.max_header_bytes) {
      return Fail(431, "header block exceeds limit");
    }

    // Request line: METHOD SP target SP HTTP/1.x
    const std::string_view head(buffer_.data(), header_end);
    size_t line_end = head.find_first_of("\r\n");
    if (line_end == std::string_view::npos) {
      line_end = head.size();
    }
    const std::string_view request_line = head.substr(0, line_end);
    const size_t method_end = request_line.find(' ');
    if (method_end == std::string_view::npos || method_end == 0) {
      return Fail(400, "malformed request line");
    }
    const std::string_view after_method = request_line.substr(method_end + 1);
    const size_t target_end = after_method.find(' ');
    if (target_end == std::string_view::npos || target_end == 0) {
      return Fail(400, "malformed request line");
    }
    const std::string_view version = after_method.substr(target_end + 1);
    if (version.rfind("HTTP/1.", 0) != 0) {
      return Fail(400, "unsupported protocol version");
    }
    request_.method.assign(request_line.substr(0, method_end));
    request_.target.assign(after_method.substr(0, target_end));
    NormalizeTarget(request_.target, &request_.path, &request_.query);
    if (request_.path.empty() || request_.path[0] != '/') {
      return Fail(400, "request target must be an absolute path");
    }

    // Header fields.
    request_.headers.clear();
    size_t cursor = line_end;
    while (cursor < head.size()) {
      // Skip the line terminator (CRLF or LF).
      if (head[cursor] == '\r') {
        ++cursor;
      }
      if (cursor < head.size() && head[cursor] == '\n') {
        ++cursor;
      }
      if (cursor >= head.size()) {
        break;
      }
      size_t next = head.find_first_of("\r\n", cursor);
      if (next == std::string_view::npos) {
        next = head.size();
      }
      const std::string_view line = head.substr(cursor, next - cursor);
      cursor = next;
      if (line.empty()) {
        continue;
      }
      const size_t colon = line.find(':');
      if (colon == std::string_view::npos || colon == 0) {
        return Fail(400, "malformed header field");
      }
      const std::string name = ToLower(StripWhitespace(line.substr(0, colon)));
      if (name.find(' ') != std::string::npos) {
        return Fail(400, "whitespace inside header field name");
      }
      request_.headers.emplace_back(
          name, std::string(StripWhitespace(line.substr(colon + 1))));
    }

    // Body length. Chunked bodies are out of scope for these daemons.
    if (request_.FindHeader("transfer-encoding") != nullptr) {
      return Fail(400, "transfer-encoding is not supported");
    }
    content_length_ = 0;
    const std::string* declared = request_.FindHeader("content-length");
    if (declared != nullptr) {
      if (!ParseContentLength(*declared, &content_length_)) {
        return Fail(400, "malformed content-length");
      }
      // Duplicate Content-Length fields with disagreeing values are a
      // smuggling vector; reject them.
      for (const auto& [name, value] : request_.headers) {
        if (name == "content-length" && value != *declared) {
          return Fail(400, "conflicting content-length fields");
        }
      }
      if (content_length_ > limits_.max_body_bytes) {
        return Fail(413, "declared body exceeds limit");
      }
    }
    body_offset_ = body_start;
    headers_done_ = true;
  }

  if (buffer_.size() < body_offset_ + content_length_) {
    return State::kNeedMore;
  }
  request_.body.assign(buffer_, body_offset_, content_length_);
  consumed_ = body_offset_ + content_length_;
  return State::kComplete;
}

void HttpParser::ConsumeRequest() {
  buffer_.erase(0, consumed_);
  consumed_ = 0;
  body_offset_ = 0;
  content_length_ = 0;
  headers_done_ = false;
  request_ = HttpRequest{};
}

}  // namespace gva::net
