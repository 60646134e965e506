#include "config/xml.hpp"

#include <cctype>
#include <cstdio>

namespace dmr::config {

const std::string* XmlNode::attr(std::string_view key) const {
  for (const auto& [k, v] : attributes) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string XmlNode::attr_or(std::string_view key, std::string fallback) const {
  const std::string* v = attr(key);
  return v ? *v : std::move(fallback);
}

const XmlNode* XmlNode::child(std::string_view tag) const {
  for (const auto& c : children) {
    if (c.name == tag) return &c;
  }
  return nullptr;
}

std::vector<const XmlNode*> XmlNode::children_named(
    std::string_view tag) const {
  std::vector<const XmlNode*> out;
  for (const auto& c : children) {
    if (c.name == tag) out.push_back(&c);
  }
  return out;
}

namespace {

/// Deepest element nesting accepted (as monitor/json.cpp caps JSON):
/// parse_element recurses once per level, so hostile input must not
/// choose the stack depth.
constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view input) : in_(input) {}

  Result<XmlNode> parse_document() {
    skip_misc();
    if (eof()) return fail("empty document");
    XmlNode root;
    Status s = parse_element(root, 1);
    if (!s.is_ok()) return s;
    skip_misc();
    if (!eof()) return fail("trailing content after root element");
    return root;
  }

 private:
  bool eof() const { return pos_ >= in_.size(); }
  char peek() const { return in_[pos_]; }
  char get() {
    const char c = in_[pos_++];
    if (c == '\n') ++line_;
    return c;
  }
  bool starts_with(std::string_view s) const {
    return in_.substr(pos_, s.size()) == s;
  }
  void advance(std::size_t n) {
    for (std::size_t i = 0; i < n && !eof(); ++i) get();
  }

  Status fail(const std::string& msg) const {
    return corrupt_data("XML line " + std::to_string(line_) + ": " + msg);
  }

  void skip_ws() {
    while (!eof() && std::isspace(static_cast<unsigned char>(peek()))) get();
  }

  /// Skips whitespace, comments and processing instructions.
  void skip_misc() {
    for (;;) {
      skip_ws();
      if (starts_with("<!--")) {
        advance(4);
        while (!eof() && !starts_with("-->")) get();
        advance(3);
      } else if (starts_with("<?")) {
        advance(2);
        while (!eof() && !starts_with("?>")) get();
        advance(2);
      } else {
        return;
      }
    }
  }

  static bool name_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '-' || c == ':' || c == '.';
  }

  Status parse_name(std::string& out) {
    out.clear();
    while (!eof() && name_char(peek())) out.push_back(get());
    if (out.empty()) return fail("expected a name");
    return Status::ok();
  }

  Status decode_entity(std::string& out) {
    // Called after consuming '&'.
    std::string ent;
    while (!eof() && peek() != ';' && ent.size() < 8) ent.push_back(get());
    if (eof() || peek() != ';') return fail("unterminated entity");
    get();  // ';'
    if (ent == "lt") out.push_back('<');
    else if (ent == "gt") out.push_back('>');
    else if (ent == "amp") out.push_back('&');
    else if (ent == "quot") out.push_back('"');
    else if (ent == "apos") out.push_back('\'');
    else return fail("unknown entity &" + ent + ";");
    return Status::ok();
  }

  Status parse_attr_value(std::string& out) {
    if (eof() || (peek() != '"' && peek() != '\'')) {
      return fail("expected quoted attribute value");
    }
    const char quote = get();
    out.clear();
    while (!eof() && peek() != quote) {
      if (peek() == '&') {
        get();
        Status s = decode_entity(out);
        if (!s.is_ok()) return s;
      } else {
        out.push_back(get());
      }
    }
    if (eof()) return fail("unterminated attribute value");
    get();  // closing quote
    return Status::ok();
  }

  Status parse_element(XmlNode& node, int depth) {
    if (depth > kMaxDepth) {
      return fail("elements nested deeper than " + std::to_string(kMaxDepth));
    }
    if (eof() || peek() != '<') return fail("expected '<'");
    get();
    Status s = parse_name(node.name);
    if (!s.is_ok()) return s;

    // Attributes.
    for (;;) {
      skip_ws();
      if (eof()) return fail("unterminated start tag <" + node.name);
      if (peek() == '>' || starts_with("/>")) break;
      std::string key, value;
      s = parse_name(key);
      if (!s.is_ok()) return s;
      skip_ws();
      if (eof() || peek() != '=') return fail("expected '=' after attribute");
      get();
      skip_ws();
      s = parse_attr_value(value);
      if (!s.is_ok()) return s;
      node.attributes.emplace_back(std::move(key), std::move(value));
    }

    if (starts_with("/>")) {
      advance(2);
      return Status::ok();
    }
    get();  // '>'

    // Content: children, text, comments.
    for (;;) {
      if (eof()) return fail("unterminated element <" + node.name + ">");
      if (starts_with("</")) {
        advance(2);
        std::string closing;
        s = parse_name(closing);
        if (!s.is_ok()) return s;
        if (closing != node.name) {
          return fail("mismatched closing tag </" + closing +
                      "> for <" + node.name + ">");
        }
        skip_ws();
        if (eof() || peek() != '>') return fail("expected '>'");
        get();
        return Status::ok();
      }
      if (starts_with("<!--")) {
        advance(4);
        while (!eof() && !starts_with("-->")) get();
        if (eof()) return fail("unterminated comment");
        advance(3);
        continue;
      }
      if (peek() == '<') {
        XmlNode child;
        s = parse_element(child, depth + 1);
        if (!s.is_ok()) return s;
        node.children.push_back(std::move(child));
        continue;
      }
      if (peek() == '&') {
        get();
        s = decode_entity(node.text);
        if (!s.is_ok()) return s;
        continue;
      }
      node.text.push_back(get());
    }
  }

  std::string_view in_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

}  // namespace

Result<XmlNode> parse_xml(std::string_view input) {
  return Parser(input).parse_document();
}

Result<XmlNode> parse_xml_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return io_error("cannot open " + path);
  std::string content;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, n);
  }
  std::fclose(f);
  return parse_xml(content);
}

}  // namespace dmr::config
