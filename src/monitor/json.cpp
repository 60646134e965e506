#include "monitor/json.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "common/json_string.hpp"

namespace dmr::monitor {

namespace {

const Json& null_json() {
  static const Json kNull;
  return kNull;
}

struct Parser {
  std::string_view text;
  std::size_t pos = 0;

  bool eof() const { return pos >= text.size(); }
  char peek() const { return text[pos]; }

  void skip_ws() {
    while (!eof() && (text[pos] == ' ' || text[pos] == '\t' ||
                      text[pos] == '\n' || text[pos] == '\r')) {
      ++pos;
    }
  }

  Status error(const std::string& what) const {
    return corrupt_data("json: " + what + " at offset " +
                        std::to_string(pos));
  }

  Status parse_value(Json& out, int depth) {
    if (depth > 64) return error("nesting too deep");
    skip_ws();
    if (eof()) return error("unexpected end of input");
    const char c = peek();
    if (c == '{') return parse_object(out, depth);
    if (c == '[') return parse_array(out, depth);
    if (c == '"') {
      std::string s;
      if (Status st = parse_string(s); !st.is_ok()) return st;
      out = Json::string(std::move(s));
      return Status::ok();
    }
    if (c == 't' || c == 'f') return parse_keyword(out);
    if (c == 'n') return parse_keyword(out);
    return parse_number(out);
  }

  Status parse_keyword(Json& out) {
    auto match = [&](std::string_view kw) {
      if (text.substr(pos, kw.size()) != kw) return false;
      pos += kw.size();
      return true;
    };
    if (match("true")) {
      out = Json::boolean(true);
      return Status::ok();
    }
    if (match("false")) {
      out = Json::boolean(false);
      return Status::ok();
    }
    if (match("null")) {
      out = Json();
      return Status::ok();
    }
    return error("bad keyword");
  }

  Status parse_number(Json& out) {
    const std::size_t start = pos;
    if (!eof() && (peek() == '-' || peek() == '+')) ++pos;
    while (!eof() && (std::isdigit(static_cast<unsigned char>(peek())) ||
                      peek() == '.' || peek() == 'e' || peek() == 'E' ||
                      peek() == '-' || peek() == '+')) {
      ++pos;
    }
    if (pos == start) return error("bad number");
    const std::string token(text.substr(start, pos - start));
    char* endp = nullptr;
    const double v = std::strtod(token.c_str(), &endp);
    if (endp != token.c_str() + token.size()) return error("bad number");
    out = Json::number(v);
    return Status::ok();
  }

  Status parse_string(std::string& out) {
    if (eof() || peek() != '"') return error("expected string");
    ++pos;
    out.clear();
    while (true) {
      if (eof()) return error("unterminated string");
      const char c = text[pos++];
      if (c == '"') return Status::ok();
      // RFC 8259: control characters appear in a string only escaped.
      if (static_cast<unsigned char>(c) < 0x20) {
        return error("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (eof()) return error("unterminated escape");
      const char e = text[pos++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos + 4 > text.size()) return error("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return error("bad \\u escape");
            }
          }
          // BMP-only UTF-8 encoding (the protocol never emits
          // surrogate pairs).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return error("bad escape");
      }
    }
  }

  Status parse_array(Json& out, int depth) {
    ++pos;  // '['
    out = Json::array();
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos;
      return Status::ok();
    }
    while (true) {
      Json v;
      if (Status st = parse_value(v, depth + 1); !st.is_ok()) return st;
      out.push_back(std::move(v));
      skip_ws();
      if (eof()) return error("unterminated array");
      const char c = text[pos++];
      if (c == ']') return Status::ok();
      if (c != ',') return error("expected ',' or ']'");
    }
  }

  Status parse_object(Json& out, int depth) {
    ++pos;  // '{'
    out = Json::object();
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos;
      return Status::ok();
    }
    while (true) {
      skip_ws();
      std::string key;
      if (Status st = parse_string(key); !st.is_ok()) return st;
      skip_ws();
      if (eof() || text[pos++] != ':') return error("expected ':'");
      Json v;
      if (Status st = parse_value(v, depth + 1); !st.is_ok()) return st;
      out.set(std::move(key), std::move(v));
      skip_ws();
      if (eof()) return error("unterminated object");
      const char c = text[pos++];
      if (c == '}') return Status::ok();
      if (c != ',') return error("expected ',' or '}'");
    }
  }
};

}  // namespace

Json Json::boolean(bool b) {
  Json j;
  j.type_ = Type::kBool;
  j.bool_ = b;
  return j;
}

Json Json::number(double v) {
  Json j;
  j.type_ = Type::kNumber;
  j.number_ = v;
  return j;
}

Json Json::string(std::string s) {
  Json j;
  j.type_ = Type::kString;
  j.string_ = std::move(s);
  return j;
}

Json Json::array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

Result<Json> Json::parse(std::string_view text) {
  Parser p{text};
  Json out;
  if (Status st = p.parse_value(out, 0); !st.is_ok()) return st;
  p.skip_ws();
  if (!p.eof()) return p.error("trailing garbage");
  return out;
}

const Json& Json::at(std::size_t i) const {
  if (!is_array() || i >= items_.size()) return null_json();
  return items_[i];
}

const Json& Json::at(std::string_view key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return v;
  }
  return null_json();
}

bool Json::has(std::string_view key) const {
  for (const auto& [k, v] : members_) {
    (void)v;
    if (k == key) return true;
  }
  return false;
}

std::string Json::dump() const {
  std::string out;
  switch (type_) {
    case Type::kNull: out = "null"; break;
    case Type::kBool: out = bool_ ? "true" : "false"; break;
    case Type::kNumber: {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", number_);
      out = buf;
      break;
    }
    case Type::kString: append_json_string(out, string_); break;
    case Type::kArray: {
      out.push_back('[');
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i != 0) out.push_back(',');
        out += items_[i].dump();
      }
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      out.push_back('{');
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i != 0) out.push_back(',');
        append_json_string(out, members_[i].first);
        out.push_back(':');
        out += members_[i].second.dump();
      }
      out.push_back('}');
      break;
    }
  }
  return out;
}

void Json::push_back(Json v) {
  if (!is_array()) return;
  items_.push_back(std::move(v));
}

void Json::set(std::string key, Json v) {
  if (!is_object()) return;
  for (auto& [k, existing] : members_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  members_.emplace_back(std::move(key), std::move(v));
}

}  // namespace dmr::monitor
