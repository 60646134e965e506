// Lightweight C++ source model shared by the dmr_verify rule passes:
// no libclang, no preprocessor — a comment/string stripper, a
// heuristic brace tracker that recovers function boundaries, and
// offset→line helpers. The rules layer per-function dataflow on top
// (see model.hpp).
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace dmr::analysis {

/// One function (or method) recovered from stripped text. The stripper
/// preserves newlines, so line numbers agree with the raw file.
struct Function {
  std::string name;    ///< as written, possibly qualified (Foo::bar)
  std::string tail;    ///< unqualified tail (bar)
  int line = 0;        ///< 1-based line of the opening brace
  std::string header;  ///< signature segment before the opening brace
  std::string body;    ///< stripped text between the braces
};

/// A parsed source file: raw text (for comment-borne annotations like
/// `sync: <channel>`), its stripped twin (for every code-level rule),
/// and the function index.
struct SourceFile {
  std::string rel;   ///< '/'-separated path relative to the root
  std::string unit;  ///< dir/stem — a header+impl pair shares one unit
  bool is_header = false;
  std::string raw;
  std::string stripped;
  std::vector<std::string> raw_lines;
  std::vector<Function> functions;
};

/// Replaces comments and string/char-literal contents with spaces
/// (newlines preserved) so rules never fire on prose or literals.
std::string strip_comments_and_strings(const std::string& in);

std::vector<std::string> split_lines(const std::string& text);

std::optional<std::string> read_file(const std::string& path);

/// Splits stripped text into function bodies (heuristic brace tracker:
/// a '{' whose preceding segment looks like `name(...)` opens a
/// function; nested braces stay inside it).
std::vector<Function> extract_functions(const std::string& stripped);

int line_of_offset(const std::string& text, std::size_t off);

/// 1-based line of `off` within `fn.body`, in file coordinates.
int line_in_body(const Function& fn, std::size_t off);

bool is_ident_char(char c);

/// `Foo::bar` -> `bar` (identity for unqualified names).
std::string tail_name(const std::string& qualified);

/// Offset just past the closer matching the opener at `open`
/// (text[open] must be `open_ch`); npos when unbalanced.
std::size_t match_forward(const std::string& text, std::size_t open,
                          char open_ch, char close_ch);

}  // namespace dmr::analysis
