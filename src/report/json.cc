#include "src/report/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

namespace lmb::report {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters");
    }
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::invalid_argument("json parse error at offset " + std::to_string(pos_) + ": " +
                                why);
  }

  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    size_t n = std::strlen(lit);
    if (text_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    skip_ws();
    char c = peek();
    if (c == '{' || c == '[') {
      // Recursion depth is input-controlled; an unbounded one is a stack
      // overflow away from crashing whoever parses an untrusted frame.
      if (++depth_ > kMaxDepth) {
        fail("nesting deeper than " + std::to_string(kMaxDepth));
      }
      JsonValue v = c == '{' ? parse_object() : parse_array();
      --depth_;
      return v;
    }
    if (c == '"') return JsonValue{parse_string()};
    if (consume_literal("null")) return JsonValue{nullptr};
    if (consume_literal("true")) return JsonValue{true};
    if (consume_literal("false")) return JsonValue{false};
    return parse_number();
  }

  JsonValue parse_object() {
    expect('{');
    JsonObject obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue{std::move(obj)};
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[std::move(key)] = parse_value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return JsonValue{std::move(obj)};
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonArray arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue{std::move(arr)};
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue{std::move(arr)};
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) {
        fail("unterminated string");
      }
      char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        fail("unterminated escape");
      }
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // Emitters here only produce \u for control characters; encode
          // the BMP code point as UTF-8 for generality.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      fail("expected value");
    }
    // from_chars, not stod: locale-independent, and the token scan above
    // already excludes textual forms like "inf"/"nan".
    double value = 0.0;
    auto res = std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (res.ec != std::errc() || res.ptr != text_.data() + pos_) {
      fail("bad number");
    }
    return JsonValue{value};
  }

  static constexpr int kMaxDepth = 512;

  const std::string& text_;
  int depth_ = 0;
  size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(const std::string& text) { return JsonParser(text).parse(); }

const JsonValue* find(const JsonObject& obj, const std::string& key) {
  auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

double number_or_nan(const JsonValue& v) {
  return v.is_null() ? std::numeric_limits<double>::quiet_NaN() : v.number();
}

std::string json_quote(const std::string& s) { return "\"" + json_escape(s) + "\""; }

std::string to_text(const JsonValue& v) {
  struct Emitter {
    std::string out;
    void emit(const JsonValue& value) {
      if (std::holds_alternative<std::nullptr_t>(value.v)) {
        out += "null";
      } else if (std::holds_alternative<bool>(value.v)) {
        out += std::get<bool>(value.v) ? "true" : "false";
      } else if (std::holds_alternative<double>(value.v)) {
        out += json_double(std::get<double>(value.v));
      } else if (std::holds_alternative<std::string>(value.v)) {
        out += json_quote(std::get<std::string>(value.v));
      } else if (std::holds_alternative<JsonArray>(value.v)) {
        out += '[';
        bool first = true;
        for (const JsonValue& item : std::get<JsonArray>(value.v)) {
          if (!first) {
            out += ',';
          }
          first = false;
          emit(item);
        }
        out += ']';
      } else {
        out += '{';
        bool first = true;
        for (const auto& [key, item] : std::get<JsonObject>(value.v)) {
          if (!first) {
            out += ',';
          }
          first = false;
          out += json_quote(key);
          out += ':';
          emit(item);
        }
        out += '}';
      }
    }
  };
  Emitter emitter;
  emitter.emit(v);
  return emitter.out;
}

std::string json_double(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace lmb::report
