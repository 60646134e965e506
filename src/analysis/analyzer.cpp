#include "analysis/analyzer.hpp"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/model.hpp"
#include "analysis/rules.hpp"
#include "analysis/source.hpp"
#include "common/json_string.hpp"

namespace fs = std::filesystem;

namespace dmr::analysis {

namespace {

/// Bumped whenever rule semantics change, so stale caches self-expire.
const char* kCacheHeader = "dmr-verify-cache v3";

/// The config-doc rule's reference text. It is keyed in the cache like
/// a source file (editing it must invalidate a cached run) but never
/// analyzed as one.
const char* kDesignDoc = "DESIGN.md";

struct AllowEntry {
  std::string rule;
  std::string path;    ///< suffix-matched against the finding's file
  std::string symbol;  ///< optional; empty matches any
  std::string justification;
  int line = 0;
  bool used = false;
};

std::uint64_t fnv1a64(const std::string& data) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string rel_path(const fs::path& p, const fs::path& root) {
  std::error_code ec;
  const fs::path r = fs::relative(p, root, ec);
  return (ec ? p : r).generic_string();
}

/// Files named by compile_commands.json (hand-rolled: the format is
/// regular enough to need no JSON parser).
std::vector<fs::path> compdb_files(const fs::path& compdb) {
  std::vector<fs::path> files;
  const auto text = read_file(compdb.string());
  if (!text) return files;
  static const std::regex kFile("\"file\"\\s*:\\s*\"([^\"]+)\"");
  for (std::sregex_iterator it(text->begin(), text->end(), kFile), end;
       it != end; ++it)
    files.emplace_back((*it)[1].str());
  return files;
}

struct FileStat {
  std::string rel;
  fs::path path;
  std::int64_t mtime = 0;
  std::uint64_t size = 0;
  std::uint64_t hash = 0;
  bool hashed = false;
  std::string content;  ///< filled lazily
};

struct CacheEntry {
  std::int64_t mtime = 0;
  std::uint64_t size = 0;
  std::uint64_t hash = 0;
};

struct Cache {
  bool loaded = false;
  std::map<std::string, CacheEntry> files;
  std::vector<Finding> findings;
};

std::string sanitize(std::string s) {
  for (char& c : s)
    if (c == '\t' || c == '\n' || c == '\r') c = ' ';
  return s;
}

Cache load_cache(const std::string& path) {
  Cache cache;
  const auto text = read_file(path);
  if (!text) return cache;
  std::istringstream is(*text);
  std::string line;
  if (!std::getline(is, line) || line != kCacheHeader) return cache;
  while (std::getline(is, line)) {
    if (line.size() < 2) continue;
    std::vector<std::string> cols;
    std::size_t pos = 2;
    while (pos <= line.size()) {
      const std::size_t tab = line.find('\t', pos);
      cols.push_back(line.substr(pos, tab == std::string::npos
                                          ? std::string::npos
                                          : tab - pos));
      if (tab == std::string::npos) break;
      pos = tab + 1;
    }
    try {
      if (line[0] == 'F' && cols.size() == 4) {
        CacheEntry e;
        e.mtime = std::stoll(cols[0]);
        e.size = std::stoull(cols[1]);
        e.hash = std::stoull(cols[2]);
        cache.files[cols[3]] = e;
      } else if (line[0] == 'J' && cols.size() == 5) {
        Finding f;
        f.rule = cols[0];
        f.file = cols[1];
        f.line = std::stoi(cols[2]);
        f.symbol = cols[3];
        f.message = cols[4];
        cache.findings.push_back(f);
      }
    } catch (const std::exception&) {
      return Cache{};  // corrupt cache: treat as absent
    }
  }
  cache.loaded = true;
  return cache;
}

void save_cache(const std::string& path, const std::vector<FileStat>& stats,
                const std::vector<Finding>& findings) {
  std::error_code ec;
  fs::create_directories(fs::path(path).parent_path(), ec);
  std::ofstream out(path);
  if (!out) return;
  out << kCacheHeader << "\n";
  for (const FileStat& st : stats)
    out << "F " << st.mtime << "\t" << st.size << "\t" << st.hash << "\t"
        << st.rel << "\n";
  for (const Finding& f : findings)
    out << "J " << sanitize(f.rule) << "\t" << sanitize(f.file) << "\t"
        << f.line << "\t" << sanitize(f.symbol) << "\t"
        << sanitize(f.message) << "\n";
}

std::vector<AllowEntry> parse_allowlist(const std::string& path,
                                        std::vector<Finding>& out) {
  std::vector<AllowEntry> entries;
  const auto text = read_file(path);
  if (!text) return entries;
  const auto lines = split_lines(*text);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (line.empty() || line[0] == '#') continue;
    const std::size_t hash = line.find('#');
    std::string justification =
        hash == std::string::npos ? "" : line.substr(hash + 1);
    while (!justification.empty() && justification.front() == ' ')
      justification.erase(justification.begin());
    std::istringstream is(line.substr(0, hash));
    AllowEntry e;
    e.line = static_cast<int>(i + 1);
    is >> e.rule >> e.path;
    if (const std::size_t colon = e.path.find(':');
        colon != std::string::npos) {
      e.symbol = e.path.substr(colon + 1);
      e.path = e.path.substr(0, colon);
    }
    e.justification = justification;
    if (e.rule.empty() || e.path.empty() || e.justification.empty()) {
      out.push_back({"allowlist", path, e.line, e.rule,
                     "malformed allowlist entry (need `rule path[:symbol]  "
                     "# justification`)"});
      continue;
    }
    entries.push_back(e);
  }
  return entries;
}

bool suppressed_by(const Finding& f, const AllowEntry& e) {
  if (f.rule != e.rule) return false;
  if (f.file.size() < e.path.size() ||
      f.file.compare(f.file.size() - e.path.size(), e.path.size(), e.path) !=
          0)
    return false;
  if (!e.symbol.empty() && f.symbol != e.symbol) return false;
  return true;
}

bool finding_less(const Finding& a, const Finding& b) {
  if (a.file != b.file) return a.file < b.file;
  if (a.line != b.line) return a.line < b.line;
  if (a.rule != b.rule) return a.rule < b.rule;
  if (a.symbol != b.symbol) return a.symbol < b.symbol;
  return a.message < b.message;
}

}  // namespace

int run_analyzer(const Options& opt) {
  const fs::path root = opt.root;
  const fs::path src_root = root / "src";
  if (!fs::exists(src_root)) {
    std::cerr << "dmr_verify: no src/ under " << root << "\n";
    return 2;
  }

  // File set: compdb entries under root/src plus a recursive scan
  // (headers are not in the compdb; without one, the scan drives it).
  std::set<fs::path> paths;
  if (!opt.compdb.empty())
    for (const fs::path& f : compdb_files(opt.compdb)) {
      std::error_code ec;
      const fs::path canon = fs::weakly_canonical(f, ec);
      if (!ec && canon.generic_string().find(
                     fs::weakly_canonical(src_root).generic_string()) == 0)
        paths.insert(canon);
    }
  for (const auto& de : fs::recursive_directory_iterator(src_root)) {
    if (!de.is_regular_file()) continue;
    const std::string ext = de.path().extension().string();
    if (ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc")
      paths.insert(fs::weakly_canonical(de.path()));
  }

  if (fs::exists(root / kDesignDoc))
    paths.insert(fs::weakly_canonical(root / kDesignDoc));

  std::vector<FileStat> stats;
  for (const fs::path& p : paths) {
    std::error_code ec;
    FileStat st;
    st.rel = rel_path(p, root);
    st.path = p;
    st.mtime = fs::last_write_time(p, ec).time_since_epoch().count();
    if (ec) continue;
    st.size = fs::file_size(p, ec);
    if (ec) continue;
    stats.push_back(std::move(st));
  }
  std::sort(stats.begin(), stats.end(),
            [](const FileStat& a, const FileStat& b) { return a.rel < b.rel; });

  Cache cache;
  if (!opt.cache.empty()) cache = load_cache(opt.cache);

  // Resolve each file's hash: trust the cached hash when mtime+size
  // match; otherwise read and hash.
  bool cache_hit = cache.loaded && cache.files.size() == stats.size();
  for (FileStat& st : stats) {
    const auto it = cache.files.find(st.rel);
    if (cache.loaded && it != cache.files.end() &&
        it->second.mtime == st.mtime && it->second.size == st.size) {
      st.hash = it->second.hash;
      st.hashed = true;
      continue;
    }
    const auto text = read_file(st.path.string());
    if (!text) {
      std::cerr << "dmr_verify: cannot read " << st.rel << "\n";
      return 2;
    }
    st.content = *text;
    st.hash = fnv1a64(st.content);
    st.hashed = true;
    if (it == cache.files.end() || it->second.hash != st.hash)
      cache_hit = false;
  }

  std::vector<Finding> findings;
  if (cache_hit) {
    findings = cache.findings;
    std::cout << "dmr_verify: analysis cache hit (" << stats.size()
              << " files unchanged)\n";
  } else {
    std::vector<SourceFile> files;
    std::optional<std::string> design_doc;
    for (FileStat& st : stats) {
      if (st.content.empty() && st.size != 0) {
        const auto text = read_file(st.path.string());
        if (!text) {
          std::cerr << "dmr_verify: cannot read " << st.rel << "\n";
          return 2;
        }
        st.content = *text;
      }
      if (st.rel == kDesignDoc) {
        design_doc = std::move(st.content);
        continue;
      }
      SourceFile f;
      f.rel = st.rel;
      const std::size_t dot = f.rel.rfind('.');
      f.unit = dot == std::string::npos ? f.rel : f.rel.substr(0, dot);
      const std::string ext =
          dot == std::string::npos ? "" : f.rel.substr(dot);
      f.is_header = ext == ".hpp" || ext == ".h";
      f.raw = std::move(st.content);
      f.stripped = strip_comments_and_strings(f.raw);
      f.raw_lines = split_lines(f.raw);
      f.functions = extract_functions(f.stripped);
      files.push_back(std::move(f));
    }
    if (opt.verbose)
      std::cerr << "dmr_verify: analyzing " << files.size() << " files\n";
    const TreeModel model = build_model(std::move(files));
    run_determinism_rules(model, findings);
    run_atomics_rules(model, findings);
    run_project_rules(model, design_doc, findings);
    std::sort(findings.begin(), findings.end(), finding_less);
    findings.erase(std::unique(findings.begin(), findings.end(),
                               [](const Finding& a, const Finding& b) {
                                 return a.file == b.file && a.line == b.line &&
                                        a.rule == b.rule &&
                                        a.symbol == b.symbol &&
                                        a.message == b.message;
                               }),
                   findings.end());
    if (!opt.cache.empty()) save_cache(opt.cache, stats, findings);
  }

  std::string allowlist = opt.allowlist;
  if (allowlist.empty()) {
    const fs::path def = root / "tools" / "dmr_verify" / "allowlist.txt";
    if (fs::exists(def)) allowlist = def.string();
  }
  std::vector<AllowEntry> allow;
  if (!allowlist.empty()) allow = parse_allowlist(allowlist, findings);
  for (Finding& f : findings)
    for (AllowEntry& e : allow)
      if (suppressed_by(f, e)) {
        f.suppressed = true;
        e.used = true;
      }

  int unsuppressed = 0;
  for (const Finding& f : findings) {
    if (f.suppressed) {
      if (opt.verbose)
        std::cout << f.file << ":" << f.line << ": [" << f.rule
                  << "] suppressed: " << f.message << "\n";
      continue;
    }
    ++unsuppressed;
    std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
              << f.message << "\n";
  }
  for (const AllowEntry& e : allow)
    if (!e.used)
      std::cerr << "dmr_verify: warning: unused allowlist entry (line "
                << e.line << "): " << e.rule << " " << e.path << "\n";

  if (!opt.json_out.empty()) {
    std::error_code ec;
    fs::create_directories(fs::path(opt.json_out).parent_path(), ec);
    std::ofstream js(opt.json_out);
    js << "{\n  \"findings\": [\n";
    for (std::size_t i = 0; i < findings.size(); ++i) {
      const Finding& f = findings[i];
      js << "    {\"rule\": " << json_string(f.rule) << ", \"file\": "
         << json_string(f.file) << ", \"line\": " << f.line
         << ", \"symbol\": " << json_string(f.symbol)
         << ", \"suppressed\": " << (f.suppressed ? "true" : "false")
         << ", \"message\": " << json_string(f.message) << "}"
         << (i + 1 < findings.size() ? "," : "") << "\n";
    }
    js << "  ],\n  \"unsuppressed\": " << unsuppressed
       << ",\n  \"total\": " << findings.size() << "\n}\n";
  }

  std::cout << "dmr_verify: " << findings.size() << " finding(s), "
            << unsuppressed << " unsuppressed\n";
  return unsuppressed == 0 ? 0 : 1;
}

}  // namespace dmr::analysis
