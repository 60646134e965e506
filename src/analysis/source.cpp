#include "analysis/source.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

namespace dmr::analysis {

std::string strip_comments_and_strings(const std::string& in) {
  std::string out = in;
  enum class St { kCode, kLine, kBlock, kStr, kChar } st = St::kCode;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    const char n = i + 1 < in.size() ? in[i + 1] : '\0';
    switch (st) {
      case St::kCode:
        if (c == '/' && n == '/') st = St::kLine;
        else if (c == '/' && n == '*') st = St::kBlock;
        else if (c == '"') st = St::kStr;
        else if (c == '\'') st = St::kChar;
        if (st == St::kLine || st == St::kBlock) out[i] = ' ';
        break;
      case St::kLine:
        if (c == '\n') st = St::kCode;
        else out[i] = ' ';
        break;
      case St::kBlock:
        if (c == '*' && n == '/') { out[i] = out[i + 1] = ' '; ++i; st = St::kCode; }
        else if (c != '\n') out[i] = ' ';
        break;
      case St::kStr:
      case St::kChar: {
        const char quote = st == St::kStr ? '"' : '\'';
        if (c == '\\') { if (c != '\n') out[i] = ' '; if (n != '\n') out[i + 1] = ' '; ++i; }
        else if (c == quote) st = St::kCode;
        else if (c != '\n') out[i] = ' ';
        break;
      }
    }
  }
  return out;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

namespace {

bool looks_like_function_header(const std::string& seg) {
  if (seg.find('(') == std::string::npos) return false;
  static const char* kContainers[] = {"namespace", "class ", "struct ",
                                      "enum ", "union "};
  for (const char* kw : kContainers)
    if (seg.find(kw) != std::string::npos) return false;
  // A '=' outside parentheses is an initializer (`auto x = f(...)`,
  // brace-init), not a function header; one inside is a default
  // argument (`f(int n = 1)`) and does not disqualify.
  if (seg.find("operator") == std::string::npos) {
    int depth = 0;
    for (const char c : seg) {
      if (c == '(' || c == '[') ++depth;
      else if (c == ')' || c == ']') --depth;
      else if (c == '=' && depth == 0) return false;
    }
  }
  return true;
}

std::string function_name_of(const std::string& seg) {
  const std::size_t paren = seg.find('(');
  if (paren == std::string::npos || paren == 0) return "?";
  std::size_t end = paren;
  while (end > 0 && std::isspace(static_cast<unsigned char>(seg[end - 1])))
    --end;
  std::size_t begin = end;
  while (begin > 0) {
    const char c = seg[begin - 1];
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':' ||
        c == '~')
      --begin;
    else
      break;
  }
  return begin == end ? "?" : seg.substr(begin, end - begin);
}

}  // namespace

std::vector<Function> extract_functions(const std::string& stripped) {
  std::vector<Function> fns;
  std::string seg;
  int line = 1;
  int depth = 0;      // brace depth outside any function
  int fn_depth = -1;  // depth at which the current function opened
  Function cur;
  for (const char c : stripped) {
    if (c == '\n') ++line;
    if (fn_depth >= 0) {
      if (c == '{') ++depth;
      if (c == '}') {
        --depth;
        if (depth == fn_depth) {
          fns.push_back(cur);
          cur = Function{};
          fn_depth = -1;
          seg.clear();
          continue;
        }
      }
      cur.body += c;
      continue;
    }
    if (c == '{') {
      if (looks_like_function_header(seg)) {
        cur.name = function_name_of(seg);
        cur.tail = tail_name(cur.name);
        cur.line = line;
        cur.header = seg;
        fn_depth = depth;
      }
      ++depth;
      seg.clear();
    } else if (c == '}') {
      --depth;
      seg.clear();
    } else if (c == ';') {
      seg.clear();
    } else {
      seg += c;
    }
  }
  return fns;
}

int line_of_offset(const std::string& text, std::size_t off) {
  off = std::min(off, text.size());
  return 1 + static_cast<int>(std::count(
                 text.begin(),
                 text.begin() + static_cast<std::ptrdiff_t>(off), '\n'));
}

int line_in_body(const Function& fn, std::size_t off) {
  off = std::min(off, fn.body.size());
  return fn.line + static_cast<int>(std::count(
                       fn.body.begin(),
                       fn.body.begin() + static_cast<std::ptrdiff_t>(off),
                       '\n'));
}

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::string tail_name(const std::string& qualified) {
  const std::size_t pos = qualified.rfind("::");
  return pos == std::string::npos ? qualified : qualified.substr(pos + 2);
}

std::size_t match_forward(const std::string& text, std::size_t open,
                          char open_ch, char close_ch) {
  if (open >= text.size() || text[open] != open_ch) return std::string::npos;
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == open_ch) ++depth;
    else if (text[i] == close_ch && --depth == 0) return i + 1;
  }
  return std::string::npos;
}

}  // namespace dmr::analysis
