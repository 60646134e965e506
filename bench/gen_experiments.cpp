// Reproduction-report generator, the only program that runs the paper's
// figures and tables: runs every reproduced one and emits
//   --md <path>        the generated paper-vs-measured markdown block
//                      (spliced into EXPERIMENTS.md between the
//                      BEGIN/END GENERATED markers by
//                      scripts/gen_experiments_md.sh)
//   --json-dir <dir>   one <figure-id>.json per figure with the headline
//                      scalars plus full jitter distributions, and an
//                      aggregate report.json
//
// Output is deterministic (fixed-seed simulation, fixed formatting):
// the CI docs-drift gate relies on byte-identical regeneration. Exits 1
// when an output file cannot be written, 2 on a usage error.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "experiments/report.hpp"

int main(int argc, char** argv) {
  std::string md_path, json_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--md" && i + 1 < argc) {
      md_path = argv[++i];
    } else if (arg == "--json-dir" && i + 1 < argc) {
      json_dir = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: gen_experiments [--md <path>] [--json-dir <dir>]\n");
      return 2;
    }
  }
  if (md_path.empty() && json_dir.empty()) {
    std::fprintf(stderr,
                 "usage: gen_experiments [--md <path>] [--json-dir <dir>]\n");
    return 2;
  }

  std::fprintf(stderr,
               "gen_experiments: re-running fig2-fig7, Table I and the "
               "break-even model (tens of seconds)...\n");
  const std::vector<dmr::experiments::FigureReport> reports =
      dmr::experiments::generate_figure_reports();

  using dmr::bench::write_file;
  bool ok = true;
  if (!md_path.empty()) {
    ok = write_file(md_path,
                    dmr::experiments::figure_reports_markdown(reports)) &&
         ok;
  }
  if (!json_dir.empty()) {
    for (const dmr::experiments::FigureReport& r : reports) {
      ok = write_file(json_dir + "/" + r.id + ".json", r.json + "\n") && ok;
    }
    ok = write_file(json_dir + "/report.json",
                    dmr::experiments::figure_reports_json(reports)) &&
         ok;
  }
  return ok ? 0 : 1;
}
