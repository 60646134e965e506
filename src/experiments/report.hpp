// Reproduction reports: the paper-vs-measured tables of EXPERIMENTS.md,
// generated from the simulation instead of hand-transcribed.
//
// Each figure/table of the paper's evaluation (§IV) has a generator in
// report.cpp, the only copy of its configurations. It runs them,
// derives the headline quantities (means, maxima, spreads, ratios) and
// renders them twice: as a markdown section spliced into EXPERIMENTS.md
// between the BEGIN/END GENERATED markers (scripts/gen_experiments_md.sh),
// and as machine-readable JSON with full trace::JitterReport distributions
// (count/mean/p50/p95/max/spread + histogram per strategy and scale).
//
// Determinism is the contract: every number comes from the fixed-seed
// discrete-event simulation — no wall-clock, no host-dependent values —
// and all formatting is fixed-width (Table::num, %.6g), so two runs on
// any machine produce byte-identical output. The CI docs-drift gate
// (scripts/ci.sh) regenerates the block and fails when the committed
// EXPERIMENTS.md disagrees.
//
// Thread-safety: generators run simulations serially; call from one
// thread.
#pragma once

#include <string>
#include <vector>

namespace dmr::experiments {

/// One generated section: a figure or table of the paper.
struct FigureReport {
  std::string id;       // e.g. "fig2" — file stem of the per-figure JSON
  std::string heading;  // markdown "## ..." line
  std::string body_md;  // markdown body (paper-vs-measured table + notes)
  std::string json;     // machine-readable object for this figure
};

/// Runs every reproduced figure/table (fig2–fig7, Table I, the §V-A
/// break-even model) and derives the paper-vs-measured quantities.
/// Figures sharing runs (fig2/fig6 use identical configs) are simulated
/// once. Takes tens of seconds of wall time (the 9216-core sweeps
/// dominate).
std::vector<FigureReport> generate_figure_reports();

/// The full generated markdown block (all sections, no markers).
std::string figure_reports_markdown(const std::vector<FigureReport>& reports);

/// Aggregate JSON: {"schema": ..., "figures": {"fig2": {...}, ...}}.
std::string figure_reports_json(const std::vector<FigureReport>& reports);

}  // namespace dmr::experiments
