#include "analysis/model.hpp"

#include <algorithm>
#include <cctype>
#include <regex>

namespace dmr::analysis {

namespace {

bool is_space(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }

/// Collects declarator names that follow `type_tok<...>`: skips the
/// balanced template-argument group, then declarator decoration
/// (`[]`, stray `>`, `*`, `&`), reads an identifier, and accepts it only
/// when what follows could end a declarator (`; { = , ) [` or a DMR_*
/// annotation macro). Rejects uses in casts, `using` aliases and nested
/// template arguments, where no identifier sits in that slot.
void collect_template_decls(const std::string& s, const std::string& type_tok,
                            std::set<std::string>& out) {
  for (std::size_t pos = s.find(type_tok); pos != std::string::npos;
       pos = s.find(type_tok, pos + 1)) {
    if (pos > 0 && is_ident_char(s[pos - 1])) continue;
    std::size_t i = pos + type_tok.size();
    if (i < s.size() && is_ident_char(s[i])) continue;  // longer identifier
    while (i < s.size() && is_space(s[i])) ++i;
    if (i >= s.size() || s[i] != '<') continue;
    const std::size_t after = match_forward(s, i, '<', '>');
    if (after == std::string::npos) continue;
    std::size_t j = after;
    while (j < s.size()) {
      if (is_space(s[j])) { ++j; continue; }
      if (s[j] == '[') {
        const std::size_t k = match_forward(s, j, '[', ']');
        if (k == std::string::npos) break;
        j = k;
        continue;
      }
      if (s[j] == '>' || s[j] == '&' || s[j] == '*') { ++j; continue; }
      break;
    }
    const std::size_t name_b = j;
    while (j < s.size() && is_ident_char(s[j])) ++j;
    if (j == name_b) continue;
    const std::string name = s.substr(name_b, j - name_b);
    if (name == "const" || name == "constexpr" || name == "noexcept" ||
        name == "final" || name == "override")
      continue;
    std::size_t k = j;
    while (k < s.size() && is_space(s[k])) ++k;
    const char nx = k < s.size() ? s[k] : ';';
    const bool annotated = nx == 'D' && s.compare(k, 4, "DMR_") == 0;
    if (nx == ';' || nx == '{' || nx == '=' || nx == ',' || nx == ')' ||
        nx == '[' || annotated)
      out.insert(name);
  }
}

const char* kUnorderedTypes[] = {
    "std::unordered_map", "std::unordered_set", "std::unordered_multimap",
    "std::unordered_multiset"};

void parse_sync_table(TreeModel& m) {
  if (const SourceFile* obs = m.find("src/shm/observer.hpp")) {
    m.sync.kinds_rel = obs->rel;
    const std::string& s = obs->stripped;
    const std::size_t b = s.find("enum class Kind");
    if (b != std::string::npos) {
      const std::size_t open = s.find('{', b);
      const std::size_t close =
          open == std::string::npos ? open : match_forward(s, open, '{', '}');
      if (open != std::string::npos && close != std::string::npos) {
        const std::string body = s.substr(open, close - open);
        static const std::regex kKind("\\b(k[A-Z]\\w*)");
        for (std::sregex_iterator it(body.begin(), body.end(), kKind), end;
             it != end; ++it)
          if (std::find(m.sync.kinds.begin(), m.sync.kinds.end(),
                        (*it)[1].str()) == m.sync.kinds.end())
            m.sync.kinds.push_back((*it)[1].str());
      }
    }
  }
  const SourceFile* tbl = m.find("src/shm/sync_channels.hpp");
  if (tbl == nullptr) return;
  m.sync.table_rel = tbl->rel;
  const std::string& s = tbl->stripped;
  auto block = [&](const char* define) -> std::string {
    const std::size_t b = s.find(define);
    if (b == std::string::npos) return "";
    std::size_t e = s.find("#define", b + 1);
    if (e == std::string::npos) e = s.size();
    return s.substr(b, e - b);
  };
  const std::string sync_block = block("#define DMR_SYNC_POINT_CHANNELS");
  static const std::regex kPair(
      "X\\(\\s*([A-Za-z_]\\w*)\\s*,\\s*([A-Za-z_]\\w*)");
  for (std::sregex_iterator it(sync_block.begin(), sync_block.end(), kPair),
       end;
       it != end; ++it)
    m.sync.kind_channels[(*it)[1].str()] = (*it)[2].str();
  const std::string atomic_block = block("#define DMR_ATOMIC_CHANNELS");
  static const std::regex kOne("X\\(\\s*([A-Za-z_]\\w*)");
  for (std::sregex_iterator it(atomic_block.begin(), atomic_block.end(), kOne),
       end;
       it != end; ++it)
    m.sync.atomic_channels.insert((*it)[1].str());
}

}  // namespace

bool SyncTable::has_channel(const std::string& name) const {
  if (atomic_channels.count(name) != 0) return true;
  for (const auto& [kind, channel] : kind_channels)
    if (channel == name) return true;
  return false;
}

const SourceFile* TreeModel::find(const std::string& rel_suffix) const {
  for (const SourceFile& f : files) {
    if (f.rel == rel_suffix) return &f;
    if (f.rel.size() > rel_suffix.size() &&
        f.rel.compare(f.rel.size() - rel_suffix.size(), rel_suffix.size(),
                      rel_suffix) == 0 &&
        f.rel[f.rel.size() - rel_suffix.size() - 1] == '/')
      return &f;
  }
  return nullptr;
}

std::set<std::string> atomic_decl_names(const std::string& stripped) {
  std::set<std::string> names;
  collect_template_decls(stripped, "std::atomic", names);
  return names;
}

std::set<std::string> unordered_decl_names(const std::string& stripped) {
  std::set<std::string> names;
  for (const char* tok : kUnorderedTypes)
    collect_template_decls(stripped, tok, names);
  return names;
}

TreeModel build_model(std::vector<SourceFile> files) {
  TreeModel m;
  std::sort(files.begin(), files.end(),
            [](const SourceFile& a, const SourceFile& b) { return a.rel < b.rel; });
  m.files = std::move(files);
  for (std::size_t i = 0; i < m.files.size(); ++i) {
    const SourceFile& f = m.files[i];
    m.units[f.unit].push_back(i);
    for (const std::string& n : atomic_decl_names(f.stripped))
      m.unit_atomics[f.unit].insert(n);
    for (const std::string& n : unordered_decl_names(f.stripped))
      m.unit_unordered[f.unit].insert(n);
    for (std::size_t j = 0; j < f.functions.size(); ++j) {
      m.fn_by_tail[f.functions[j].tail].push_back(m.all_fns.size());
      m.all_fns.emplace_back(i, j);
    }
  }
  parse_sync_table(m);
  return m;
}

}  // namespace dmr::analysis
