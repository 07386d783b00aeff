#include "json.h"

#include <charconv>
#include <cmath>
#include <system_error>

namespace perfbench {

Json Json::Bool(bool value) {
  Json j;
  j.type_ = Type::kBool;
  j.bool_ = value;
  return j;
}

Json Json::Number(double value) {
  Json j;
  j.type_ = Type::kNumber;
  j.number_ = value;
  return j;
}

Json Json::Str(std::string value) {
  Json j;
  j.type_ = Type::kString;
  j.string_ = std::move(value);
  return j;
}

Json Json::Array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::Object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

Json& Json::Set(std::string key, Json value) {
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  members_.emplace_back(std::move(key), std::move(value));
  return *this;
}

Json& Json::Push(Json value) {
  items_.push_back(std::move(value));
  return *this;
}

const Json* Json::Find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool Json::operator==(const Json& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull:
      return true;
    case Type::kBool:
      return bool_ == other.bool_;
    case Type::kNumber:
      return number_ == other.number_;
    case Type::kString:
      return string_ == other.string_;
    case Type::kArray:
      return items_ == other.items_;
    case Type::kObject:
      return members_ == other.members_;
  }
  return false;
}

namespace {

void AppendEscaped(std::string_view s, std::string* out) {
  static constexpr char kHex[] = "0123456789abcdef";
  out->push_back('"');
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (u < 0x20) {
          out->append("\\u00");
          out->push_back(kHex[u >> 4]);
          out->push_back(kHex[u & 0xF]);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

parj::Status AppendNumber(double value, std::string* out) {
  if (!std::isfinite(value)) {
    return parj::Status::InvalidArgument(
        "JSON cannot represent a NaN or infinite number");
  }
  // std::to_chars reports a too-small buffer as an error instead of
  // truncating; 32 bytes hold every shortest-form double.
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) {
    return parj::Status::Internal("number formatting failed");
  }
  out->append(buf, end);
  return parj::Status::OK();
}

void Newline(bool pretty, int depth, std::string* out) {
  if (!pretty) return;
  out->push_back('\n');
  out->append(static_cast<size_t>(depth) * 2, ' ');
}

parj::Status Write(const Json& value, bool pretty, int depth,
                   std::string* out) {
  switch (value.type()) {
    case Json::Type::kNull:
      out->append("null");
      return parj::Status::OK();
    case Json::Type::kBool:
      out->append(value.as_bool() ? "true" : "false");
      return parj::Status::OK();
    case Json::Type::kNumber:
      return AppendNumber(value.as_number(), out);
    case Json::Type::kString:
      AppendEscaped(value.as_string(), out);
      return parj::Status::OK();
    case Json::Type::kArray: {
      out->push_back('[');
      bool first = true;
      for (const Json& item : value.items()) {
        if (!first) out->push_back(',');
        first = false;
        Newline(pretty, depth + 1, out);
        PARJ_RETURN_NOT_OK(Write(item, pretty, depth + 1, out));
      }
      if (!value.items().empty()) Newline(pretty, depth, out);
      out->push_back(']');
      return parj::Status::OK();
    }
    case Json::Type::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, member] : value.members()) {
        if (!first) out->push_back(',');
        first = false;
        Newline(pretty, depth + 1, out);
        AppendEscaped(key, out);
        out->append(pretty ? ": " : ":");
        PARJ_RETURN_NOT_OK(Write(member, pretty, depth + 1, out));
      }
      if (!value.members().empty()) Newline(pretty, depth, out);
      out->push_back('}');
      return parj::Status::OK();
    }
  }
  return parj::Status::Internal("unknown JSON type");
}

/// Recursive-descent parser over one document.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  parj::Result<Json> Document() {
    Json value;
    PARJ_RETURN_NOT_OK(Value(&value, 0));
    SkipSpace();
    if (pos_ != text_.size()) return Error("trailing characters");
    return value;
  }

 private:
  static constexpr int kMaxDepth = 256;

  parj::Status Error(const std::string& what) const {
    return parj::Status::ParseError("JSON " + what + " at offset " +
                                    std::to_string(pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  parj::Status Value(Json* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipSpace();
    if (pos_ >= text_.size()) return Error("unexpected end");
    const char c = text_[pos_];
    if (c == '{') return ObjectValue(out, depth);
    if (c == '[') return ArrayValue(out, depth);
    if (c == '"') {
      std::string s;
      PARJ_RETURN_NOT_OK(String(&s));
      *out = Json::Str(std::move(s));
      return parj::Status::OK();
    }
    if (Consume("true")) {
      *out = Json::Bool(true);
      return parj::Status::OK();
    }
    if (Consume("false")) {
      *out = Json::Bool(false);
      return parj::Status::OK();
    }
    if (Consume("null")) {
      *out = Json();
      return parj::Status::OK();
    }
    return NumberValue(out);
  }

  parj::Status ObjectValue(Json* out, int depth) {
    ++pos_;  // '{'
    *out = Json::Object();
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return parj::Status::OK();
    }
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected a member name");
      }
      std::string key;
      PARJ_RETURN_NOT_OK(String(&key));
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Error("expected ':'");
      }
      ++pos_;
      Json member;
      PARJ_RETURN_NOT_OK(Value(&member, depth + 1));
      if (out->Find(key) != nullptr) {
        return Error("duplicate member '" + key + "'");
      }
      out->Set(std::move(key), std::move(member));
      SkipSpace();
      if (pos_ >= text_.size()) return Error("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return parj::Status::OK();
      }
      return Error("expected ',' or '}'");
    }
  }

  parj::Status ArrayValue(Json* out, int depth) {
    ++pos_;  // '['
    *out = Json::Array();
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return parj::Status::OK();
    }
    while (true) {
      Json item;
      PARJ_RETURN_NOT_OK(Value(&item, depth + 1));
      out->Push(std::move(item));
      SkipSpace();
      if (pos_ >= text_.size()) return Error("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return parj::Status::OK();
      }
      return Error("expected ',' or ']'");
    }
  }

  parj::Status Hex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) return Error("short \\u escape");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("bad \\u escape");
      }
    }
    *out = v;
    return parj::Status::OK();
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  parj::Status String(std::string* out) {
    ++pos_;  // opening quote
    while (true) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return parj::Status::OK();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Error("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
          out->push_back(e);
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
          uint32_t cp = 0;
          PARJ_RETURN_NOT_OK(Hex4(&cp));
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            uint32_t low = 0;
            if (!Consume("\\u")) return Error("unpaired surrogate");
            PARJ_RETURN_NOT_OK(Hex4(&low));
            if (low < 0xDC00 || low > 0xDFFF) {
              return Error("bad surrogate pair");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Error("unpaired surrogate");
          }
          AppendUtf8(cp, out);
          break;
        }
        default:
          return Error("bad escape");
      }
    }
  }

  parj::Status NumberValue(Json* out) {
    // Validate the RFC 8259 number grammar, then convert the exact span.
    const size_t start = pos_;
    auto digits = [&] {
      const size_t from = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
      return pos_ - from;
    };
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '0') {
      ++pos_;
    } else if (digits() == 0) {
      return Error("unexpected character");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) return Error("digits expected after '.'");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (digits() == 0) return Error("digits expected in exponent");
    }
    double value = 0.0;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    const auto [end, ec] = std::from_chars(first, last, value);
    if (ec != std::errc() || end != last) return Error("number out of range");
    *out = Json::Number(value);
    return parj::Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

parj::Result<std::string> ToJson(const Json& value, bool pretty) {
  std::string out;
  PARJ_RETURN_NOT_OK(Write(value, pretty, 0, &out));
  return out;
}

parj::Result<Json> ParseJson(std::string_view text) {
  return Parser(text).Document();
}

}  // namespace perfbench
