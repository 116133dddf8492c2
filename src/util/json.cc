#include "util/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/strings.h"

namespace gva {

namespace {

constexpr size_t kMaxDepth = 64;

/// Recursive-descent parser over a string_view with a cursor. Errors carry
/// the byte offset so a malformed request body is diagnosable from the
/// 400 response alone.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  StatusOr<JsonValue> ParseDocument() {
    SkipWhitespace();
    JsonValue value;
    GVA_RETURN_IF_ERROR(ParseValue(0, &value));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing garbage after JSON value");
    }
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument(
        StrFormat("JSON parse error at byte %zu: %s", pos_, what.c_str()));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        break;
      }
      ++pos_;
    }
  }

  bool Consume(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseValue(size_t depth, JsonValue* out) {
    if (depth > kMaxDepth) {
      return Error("nesting deeper than 64 levels");
    }
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return Error("unexpected end of input");
    }
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(depth, out);
      case '[':
        return ParseArray(depth, out);
      case '"': {
        std::string s;
        GVA_RETURN_IF_ERROR(ParseString(&s));
        *out = JsonValue::String(std::move(s));
        return Status::Ok();
      }
      case 't':
        return ParseLiteral("true", JsonValue::Bool(true), out);
      case 'f':
        return ParseLiteral("false", JsonValue::Bool(false), out);
      case 'n':
        return ParseLiteral("null", JsonValue::Null(), out);
      default:
        return ParseNumber(out);
    }
  }

  Status ParseLiteral(const char* word, JsonValue value, JsonValue* out) {
    const size_t len = std::strlen(word);
    if (text_.substr(pos_, len) != word) {
      return Error(StrFormat("expected '%s'", word));
    }
    pos_ += len;
    *out = std::move(value);
    return Status::Ok();
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    size_t digits = 0;
    while (pos_ < text_.size() &&
           text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
      ++digits;
    }
    if (digits == 0) {
      pos_ = start;
      return Error("expected a value");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      size_t frac = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' &&
             text_[pos_] <= '9') {
        ++pos_;
        ++frac;
      }
      if (frac == 0) {
        return Error("digits required after decimal point");
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      size_t exp = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' &&
             text_[pos_] <= '9') {
        ++pos_;
        ++exp;
      }
      if (exp == 0) {
        return Error("digits required in exponent");
      }
    }
    // The token is validated above; from_chars converts it in place, with
    // no copy and no locale. It reports underflow and overflow alike as
    // out of range, and there strtod decides: underflow rounds to zero or
    // a subnormal and is accepted, overflow saturates to +-inf and is not.
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    double value = 0.0;
    const std::from_chars_result parsed = std::from_chars(first, last, value);
    if (parsed.ec == std::errc::result_out_of_range) {
      const std::string token(first, last);
      value = std::strtod(token.c_str(), nullptr);
    } else if (parsed.ec != std::errc() || parsed.ptr != last) {
      return Error("malformed number");
    }
    if (!std::isfinite(value)) {
      return Error("number out of range");
    }
    *out = JsonValue::Number(value);
    return Status::Ok();
  }

  static void AppendUtf8(uint32_t code_point, std::string* out) {
    if (code_point < 0x80) {
      out->push_back(static_cast<char>(code_point));
    } else if (code_point < 0x800) {
      out->push_back(static_cast<char>(0xC0u | (code_point >> 6)));
      out->push_back(static_cast<char>(0x80u | (code_point & 0x3Fu)));
    } else if (code_point < 0x10000) {
      out->push_back(static_cast<char>(0xE0u | (code_point >> 12)));
      out->push_back(static_cast<char>(0x80u | ((code_point >> 6) & 0x3Fu)));
      out->push_back(static_cast<char>(0x80u | (code_point & 0x3Fu)));
    } else {
      out->push_back(static_cast<char>(0xF0u | (code_point >> 18)));
      out->push_back(static_cast<char>(0x80u | ((code_point >> 12) & 0x3Fu)));
      out->push_back(static_cast<char>(0x80u | ((code_point >> 6) & 0x3Fu)));
      out->push_back(static_cast<char>(0x80u | (code_point & 0x3Fu)));
    }
  }

  Status ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) {
      return Error("truncated \\u escape");
    }
    uint32_t value = 0;
    for (size_t i = 0; i < 4; ++i) {
      const char c = text_[pos_ + i];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("bad hex digit in \\u escape");
      }
    }
    pos_ += 4;
    *out = value;
    return Status::Ok();
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) {
      return Error("expected '\"'");
    }
    out->clear();
    while (true) {
      if (pos_ >= text_.size()) {
        return Error("unterminated string");
      }
      const char c = text_[pos_++];
      if (c == '"') {
        return Status::Ok();
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("raw control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        return Error("truncated escape");
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          uint32_t code_point = 0;
          GVA_RETURN_IF_ERROR(ParseHex4(&code_point));
          if (code_point >= 0xD800 && code_point <= 0xDBFF) {
            // High surrogate: a low surrogate escape must follow.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return Error("high surrogate without a low surrogate");
            }
            pos_ += 2;
            uint32_t low = 0;
            GVA_RETURN_IF_ERROR(ParseHex4(&low));
            if (low < 0xDC00 || low > 0xDFFF) {
              return Error("invalid low surrogate");
            }
            code_point =
                0x10000 + ((code_point - 0xD800) << 10) + (low - 0xDC00);
          } else if (code_point >= 0xDC00 && code_point <= 0xDFFF) {
            return Error("unpaired low surrogate");
          }
          AppendUtf8(code_point, out);
          break;
        }
        default:
          return Error("unknown escape character");
      }
    }
  }

  Status ParseArray(size_t depth, JsonValue* out) {
    Consume('[');
    *out = JsonValue::Array();
    SkipWhitespace();
    if (Consume(']')) {
      return Status::Ok();
    }
    while (true) {
      JsonValue element;
      GVA_RETURN_IF_ERROR(ParseValue(depth + 1, &element));
      out->Append(std::move(element));
      SkipWhitespace();
      if (Consume(']')) {
        return Status::Ok();
      }
      if (!Consume(',')) {
        return Error("expected ',' or ']' in array");
      }
    }
  }

  Status ParseObject(size_t depth, JsonValue* out) {
    Consume('{');
    *out = JsonValue::Object();
    SkipWhitespace();
    if (Consume('}')) {
      return Status::Ok();
    }
    while (true) {
      SkipWhitespace();
      std::string key;
      GVA_RETURN_IF_ERROR(ParseString(&key));
      SkipWhitespace();
      if (!Consume(':')) {
        return Error("expected ':' after object key");
      }
      JsonValue value;
      GVA_RETURN_IF_ERROR(ParseValue(depth + 1, &value));
      out->Set(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume('}')) {
        return Status::Ok();
      }
      if (!Consume(',')) {
        return Error("expected ',' or '}' in object");
      }
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

void DumpTo(const JsonValue& value, std::string* out) {
  switch (value.type()) {
    case JsonValue::Type::kNull:
      out->append("null");
      return;
    case JsonValue::Type::kBool:
      out->append(value.as_bool() ? "true" : "false");
      return;
    case JsonValue::Type::kNumber:
      out->append(JsonNumber(value.as_number()));
      return;
    case JsonValue::Type::kString:
      out->push_back('"');
      out->append(JsonEscape(value.as_string()));
      out->push_back('"');
      return;
    case JsonValue::Type::kArray: {
      out->push_back('[');
      bool first = true;
      for (const JsonValue& item : value.items()) {
        if (!first) {
          out->push_back(',');
        }
        first = false;
        DumpTo(item, out);
      }
      out->push_back(']');
      return;
    }
    case JsonValue::Type::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, member] : value.members()) {
        if (!first) {
          out->push_back(',');
        }
        first = false;
        out->push_back('"');
        out->append(JsonEscape(key));
        out->append("\":");
        DumpTo(member, out);
      }
      out->push_back('}');
      return;
    }
  }
}

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [name, value] : members_) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

std::string JsonValue::Dump() const {
  std::string out;
  DumpTo(*this, &out);
  return out;
}

StatusOr<JsonValue> ParseJson(std::string_view text) {
  Parser parser(text);
  return parser.ParseDocument();
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out.append("\\\"");
        break;
      case '\\':
        out.append("\\\\");
        break;
      case '\b':
        out.append("\\b");
        break;
      case '\f':
        out.append("\\f");
        break;
      case '\n':
        out.append("\\n");
        break;
      case '\r':
        out.append("\\r");
        break;
      case '\t':
        out.append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out.append(StrFormat("\\u%04x", static_cast<unsigned>(
                                              static_cast<unsigned char>(c))));
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  return StrFormat("%.17g", value);
}

}  // namespace gva
