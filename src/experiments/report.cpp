#include "experiments/report.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/json_string.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "experiments/experiments.hpp"
#include "facility/facility.hpp"
#include "trace/jitter_report.hpp"

namespace dmr::experiments {

namespace {

using strategies::RunConfig;
using strategies::RunResult;
using strategies::StrategyKind;

std::string num(double v, int precision) { return Table::num(v, precision); }

std::string g6(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string gib_s(double bytes_per_sec, int precision = 2) {
  return num(bytes_per_sec / static_cast<double>(GiB), precision);
}

/// Markdown table: first row is the header.
std::string md_table(const std::vector<std::vector<std::string>>& rows) {
  std::string out;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    out += "|";
    for (const std::string& c : rows[r]) out += " " + c + " |";
    out += "\n";
    if (r == 0) {
      out += "|";
      for (std::size_t c = 0; c < rows[0].size(); ++c) out += "---|";
      out += "\n";
    }
  }
  return out;
}

/// Ordered key/value scalars for the "measured" JSON object.
class JsonObj {
 public:
  void add_num(const std::string& key, double v) { add_raw(key, g6(v)); }
  void add_str(const std::string& key, const std::string& v) {
    add_raw(key, json_string(v));
  }
  void add_raw(const std::string& key, const std::string& raw) {
    if (!body_.empty()) body_ += ", ";
    body_ += json_string(key) + ": " + raw;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string figure_json(const std::string& id, const JsonObj& measured,
                        const trace::JitterReport* jitter) {
  std::string out =
      "{\n  \"id\": " + json_string(id) + ",\n  \"measured\": " + measured.str();
  if (jitter != nullptr && !jitter->empty()) {
    out += ",\n  \"jitter\": " + jitter->to_json();
  }
  out += "\n}";
  return out;
}

/// One run of the fig2/fig6 sweep (identical configs — simulated once).
struct KrakenRun {
  int cores;
  StrategyKind kind;
  RunResult res;
};

const RunResult& find_run(const std::vector<KrakenRun>& runs, int cores,
                          StrategyKind kind) {
  for (const KrakenRun& r : runs) {
    if (r.cores == cores && r.kind == kind) return r.res;
  }
  static const RunResult empty{};
  return empty;
}

// ---------------------------------------------------------------- fig2/fig6

std::vector<KrakenRun> run_kraken_sweep() {
  std::vector<KrakenRun> runs;
  for (int cores : kraken_scales()) {
    for (StrategyKind kind :
         {StrategyKind::kFilePerProcess, StrategyKind::kCollectiveIo,
          StrategyKind::kDamaris}) {
      RunConfig cfg = kraken_config(kind, cores, /*iterations=*/5,
                                    /*write_interval=*/1);
      runs.push_back({cores, kind, run_strategy(cfg)});
    }
  }
  return runs;
}

FigureReport fig2_report(const std::vector<KrakenRun>& runs) {
  const RunResult& dam = find_run(runs, 9216, StrategyKind::kDamaris);
  const RunResult& coll = find_run(runs, 9216, StrategyKind::kCollectiveIo);
  const RunResult& fpp = find_run(runs, 9216, StrategyKind::kFilePerProcess);
  const RunResult& coll0 = find_run(runs, 576, StrategyKind::kCollectiveIo);
  const RunResult& fpp0 = find_run(runs, 576, StrategyKind::kFilePerProcess);

  const double dam_spread = dam.phase_seconds.max() - dam.phase_seconds.min();
  const double fpp_half =
      (fpp.phase_seconds.max() - fpp.phase_seconds.min()) / 2.0;

  FigureReport rep;
  rep.id = "fig2";
  rep.heading = "## Figure 2 — write-phase duration on Kraken";
  rep.body_md = md_table({
      {"quantity", "paper", "measured"},
      {"Damaris visible write, any scale", "~0.2 s",
       num(dam.rank_write_seconds.mean(), 2) + " s"},
      {"Damaris phase-to-phase spread", "~0.1 s", num(dam_spread, 2) + " s"},
      {"Collective avg at 9216 cores", "481 s",
       num(coll.phase_seconds.mean(), 0) + " s"},
      {"Collective worst phase at 9216", "up to ~800 s",
       num(coll.phase_seconds.max(), 0) +
           " s (storms make the tail; a longer run widens it)"},
      {"FPP unpredictability at 9216", "±17 s",
       "phases span " + num(fpp.phase_seconds.min(), 0) + "–" +
           num(fpp.phase_seconds.max(), 0) + " s (±" + num(fpp_half, 0) +
           " s)"},
      {"Ordering collective > FPP ≫ Damaris, growing with scale", "✓",
       "✓ (collective " + num(coll0.phase_seconds.mean(), 0) + "→" +
           num(coll.phase_seconds.mean(), 0) + " s, FPP " +
           num(fpp0.phase_seconds.mean(), 0) + "→" +
           num(fpp.phase_seconds.mean(), 0) + " s over 576→9216)"},
  });
  rep.body_md +=
      "\nDeviation note: the paper also mentions that a bad Lustre "
      "stripe-size\nchoice (32 MB) tripled the collective time to 1600 s; "
      "this anecdote is\nNOT reproduced — see deviation (4) below and "
      "`ablate_stripe_size`.\n";

  trace::JitterReport jitter;
  for (const KrakenRun& r : runs) {
    const std::string group = std::to_string(r.cores) + " cores";
    jitter.add(group,
               std::string(strategies::strategy_name(r.kind)) + " phase",
               r.res.phase_seconds);
    jitter.add(group,
               std::string(strategies::strategy_name(r.kind)) + " rank write",
               r.res.rank_write_seconds);
  }
  JsonObj m;
  m.add_num("damaris_visible_write_s", dam.rank_write_seconds.mean());
  m.add_num("damaris_phase_spread_s", dam_spread);
  m.add_num("collective_phase_avg_9216_s", coll.phase_seconds.mean());
  m.add_num("collective_phase_max_9216_s", coll.phase_seconds.max());
  m.add_num("fpp_phase_min_9216_s", fpp.phase_seconds.min());
  m.add_num("fpp_phase_max_9216_s", fpp.phase_seconds.max());
  rep.json = figure_json(rep.id, m, &jitter);
  return rep;
}

FigureReport fig6_report(const std::vector<KrakenRun>& runs) {
  const double fpp =
      find_run(runs, 9216, StrategyKind::kFilePerProcess).aggregate_throughput;
  const double coll =
      find_run(runs, 9216, StrategyKind::kCollectiveIo).aggregate_throughput;
  const double dam =
      find_run(runs, 9216, StrategyKind::kDamaris).aggregate_throughput;

  FigureReport rep;
  rep.id = "fig6";
  rep.heading = "## Figure 6 — aggregate throughput on Kraken";
  rep.body_md = md_table({
      {"quantity", "paper", "measured"},
      {"Damaris at 9216", "~10 GB/s class", gib_s(dam) + " GiB/s"},
      {"FPP at 9216", "~1.8 GB/s class", gib_s(fpp) + " GiB/s"},
      {"Collective at 9216", "~0.46 GB/s class", gib_s(coll) + " GiB/s"},
      {"Damaris / FPP", "~6×", num(dam / fpp, 1) + "×"},
      {"Damaris / collective", "~15× (quoted)",
       num(dam / coll, 1) +
           "× (note: the paper's own curve values imply ~23×; our ratio is "
           "high mainly because our collective is slightly slower)"},
  });

  JsonObj m;
  std::string per_scale = "[";
  for (int cores : kraken_scales()) {
    if (per_scale.size() > 1) per_scale += ", ";
    per_scale +=
        "{\"cores\": " + std::to_string(cores) + ", \"fpp_gib_s\": " +
        g6(find_run(runs, cores, StrategyKind::kFilePerProcess)
               .aggregate_throughput /
           static_cast<double>(GiB)) +
        ", \"collective_gib_s\": " +
        g6(find_run(runs, cores, StrategyKind::kCollectiveIo)
               .aggregate_throughput /
           static_cast<double>(GiB)) +
        ", \"damaris_gib_s\": " +
        g6(find_run(runs, cores, StrategyKind::kDamaris)
               .aggregate_throughput /
           static_cast<double>(GiB)) +
        "}";
  }
  per_scale += "]";
  m.add_num("damaris_gib_s_9216", dam / static_cast<double>(GiB));
  m.add_num("fpp_gib_s_9216", fpp / static_cast<double>(GiB));
  m.add_num("collective_gib_s_9216", coll / static_cast<double>(GiB));
  m.add_num("damaris_over_fpp", dam / fpp);
  m.add_num("damaris_over_collective", dam / coll);
  m.add_raw("per_scale", per_scale);
  rep.json = figure_json(rep.id, m, nullptr);
  return rep;
}

// --------------------------------------------------------------------- fig3

FigureReport fig3_report() {
  const std::vector<double> bpps = {16.0, 32.0, 64.0, 112.0};
  std::vector<RunResult> fpp_runs, dam_runs;
  for (double bpp : bpps) {
    for (StrategyKind kind :
         {StrategyKind::kFilePerProcess, StrategyKind::kDamaris}) {
      RunConfig cfg = blueprint_config(kind, 1024, /*iterations=*/4,
                                       /*write_interval=*/1, bpp);
      // The paper's BluePrint setup.
      cfg.fpp_compression = iopath::CompressionModel::lossless();
      cfg.damaris.compression = iopath::CompressionModel::lossless();
      (kind == StrategyKind::kFilePerProcess ? fpp_runs : dam_runs)
          .push_back(run_strategy(cfg));
    }
  }
  const RunResult& f0 = fpp_runs.front();
  const RunResult& f1 = fpp_runs.back();
  double dmin = dam_runs[0].phase_seconds.mean();
  double dmax = dmin;
  for (const RunResult& r : dam_runs) {
    dmin = std::min(dmin, r.phase_seconds.mean());
    dmax = std::max(dmax, r.phase_seconds.mean());
  }

  FigureReport rep;
  rep.id = "fig3";
  rep.heading = "## Figure 3 — jitter vs output volume on BluePrint";
  rep.body_md = md_table({
      {"quantity", "paper", "measured"},
      {"FPP write time grows with volume", "✓",
       num(f0.phase_seconds.mean(), 0) + " s → " +
           num(f1.phase_seconds.mean(), 0) + " s over " +
           format_bytes(f0.bytes_per_phase) + "→" +
           format_bytes(f1.bytes_per_phase) +
           " (HDF5 compression enabled on every BluePrint run, like the "
           "paper)"},
      {"FPP min–max spread grows with volume", "✓",
       num(f0.phase_seconds.max() - f0.phase_seconds.min(), 0) + " s → " +
           num(f1.phase_seconds.max() - f1.phase_seconds.min(), 0) + " s"},
      {"Damaris stays ~0.2 s with ~0.1 s spread", "✓",
       num(dmin, 2) + "–" + num(dmax, 2) + " s, flat in jitter"},
  });

  trace::JitterReport jitter;
  for (std::size_t i = 0; i < bpps.size(); ++i) {
    const std::string group = format_bytes(fpp_runs[i].bytes_per_phase);
    jitter.add(group, "file-per-process phase", fpp_runs[i].phase_seconds);
    jitter.add(group, "damaris phase", dam_runs[i].phase_seconds);
  }
  JsonObj m;
  m.add_num("fpp_phase_s_smallest", f0.phase_seconds.mean());
  m.add_num("fpp_phase_s_largest", f1.phase_seconds.mean());
  m.add_num("fpp_spread_s_smallest",
            f0.phase_seconds.max() - f0.phase_seconds.min());
  m.add_num("fpp_spread_s_largest",
            f1.phase_seconds.max() - f1.phase_seconds.min());
  m.add_num("damaris_phase_s_min", dmin);
  m.add_num("damaris_phase_s_max", dmax);
  rep.json = figure_json(rep.id, m, &jitter);
  return rep;
}

// --------------------------------------------------------------------- fig4

FigureReport fig4_report() {
  constexpr int kIters = 50;
  const double c576 =
      run_strategy(kraken_config(StrategyKind::kNoIo, 576, kIters, kIters))
          .total_runtime;

  struct Row {
    int cores;
    StrategyKind kind;
    double runtime;
    double s;
  };
  std::vector<Row> rows;
  double dam_rt_min = 0.0, dam_rt_max = 0.0;
  for (int cores : kraken_scales()) {
    for (StrategyKind kind :
         {StrategyKind::kFilePerProcess, StrategyKind::kCollectiveIo,
          StrategyKind::kDamaris}) {
      RunConfig cfg = kraken_config(kind, cores, kIters,
                                    /*write_interval=*/kIters);
      const RunResult res = run_strategy(cfg);
      rows.push_back({cores, kind, res.total_runtime,
                      strategies::scalability_factor(cores, res.total_runtime,
                                                     c576)});
      if (kind == StrategyKind::kDamaris) {
        if (dam_rt_min == 0.0 || res.total_runtime < dam_rt_min) {
          dam_rt_min = res.total_runtime;
        }
        dam_rt_max = std::max(dam_rt_max, res.total_runtime);
      }
    }
  }
  auto at = [&](int cores, StrategyKind kind) -> const Row& {
    for (const Row& r : rows) {
      if (r.cores == cores && r.kind == kind) return r;
    }
    return rows.front();
  };
  const Row& dam = at(9216, StrategyKind::kDamaris);
  const Row& fpp = at(9216, StrategyKind::kFilePerProcess);
  const Row& coll = at(9216, StrategyKind::kCollectiveIo);

  FigureReport rep;
  rep.id = "fig4";
  rep.heading = "## Figure 4 — scalability, 50 iterations + 1 write";
  rep.body_md = md_table({
      {"quantity", "paper", "measured"},
      {"Damaris scaling", "almost perfect",
       "S = " + num(dam.s, 0) + " of 9216 (runtime " + num(dam_rt_min, 0) +
           "–" + num(dam_rt_max, 0) + " s across all scales)"},
      {"FPP and collective fail to scale", "✓",
       "S = " + num(fpp.s, 0) + " and " + num(coll.s, 0) + " at 9216"},
      {"Run time cut vs FPP at 9216", "35%",
       num(100.0 * (1.0 - dam.runtime / fpp.runtime), 0) + "%"},
      {"Run time divided vs collective at 9216", "3.5×",
       num(coll.runtime / dam.runtime, 2) + "×"},
  });

  JsonObj m;
  m.add_num("c576_baseline_s", c576);
  std::string per_scale = "[";
  for (const Row& r : rows) {
    if (per_scale.size() > 1) per_scale += ", ";
    per_scale += "{\"cores\": " + std::to_string(r.cores) +
                 ", \"strategy\": \"" +
                 strategies::strategy_name(r.kind) + "\", \"runtime_s\": " +
                 g6(r.runtime) + ", \"s_factor\": " + g6(r.s) + "}";
  }
  per_scale += "]";
  m.add_num("damaris_s_factor_9216", dam.s);
  m.add_num("fpp_s_factor_9216", fpp.s);
  m.add_num("collective_s_factor_9216", coll.s);
  m.add_num("runtime_cut_vs_fpp_pct",
            100.0 * (1.0 - dam.runtime / fpp.runtime));
  m.add_num("runtime_ratio_vs_collective", coll.runtime / dam.runtime);
  m.add_raw("per_scale", per_scale);
  rep.json = figure_json(rep.id, m, nullptr);
  return rep;
}

// --------------------------------------------------------------------- fig5

FigureReport fig5_report() {
  const double kIterSeconds = 230.0;
  std::vector<std::pair<int, RunResult>> kraken;
  for (int cores : kraken_scales()) {
    RunConfig cfg = kraken_config(StrategyKind::kDamaris, cores,
                                  /*iterations=*/5, /*write_interval=*/1,
                                  kIterSeconds);
    kraken.emplace_back(cores, run_strategy(cfg));
  }
  std::vector<std::pair<Bytes, RunResult>> blueprint;
  for (double bpp : {16.0, 32.0, 64.0, 112.0}) {
    RunConfig cfg = blueprint_config(StrategyKind::kDamaris, 1024,
                                     /*iterations=*/5, /*write_interval=*/1,
                                     bpp);
    cfg.workload.seconds_per_iteration =
        kIterSeconds * cfg.workload.seconds_per_iteration / 4.1;
    RunResult res = run_strategy(cfg);
    blueprint.emplace_back(res.bytes_per_phase, std::move(res));
  }

  double spare_min = 1.0, spare_max = 0.0;
  for (const auto& [cores, res] : kraken) {
    spare_min = std::min(spare_min, res.dedicated_spare_fraction);
    spare_max = std::max(spare_max, res.dedicated_spare_fraction);
  }
  double bspare_min = 1.0, bspare_max = 0.0;
  for (const auto& [bytes, res] : blueprint) {
    bspare_min = std::min(bspare_min, res.dedicated_spare_fraction);
    bspare_max = std::max(bspare_max, res.dedicated_spare_fraction);
  }

  FigureReport rep;
  rep.id = "fig5";
  rep.heading = "## Figure 5 — dedicated-core write vs spare time";
  rep.body_md = md_table({
      {"quantity", "paper", "measured"},
      {"Dedicated cores idle 75–99% of the time", "✓",
       num(spare_min * 100.0, 0) + "–" + num(spare_max * 100.0, 0) +
           "% on Kraken, " + num(bspare_min * 100.0, 0) + "–" +
           num(bspare_max * 100.0, 0) + "% on BluePrint"},
      {"Kraken write time grows with process count (network/FS contention, "
       "equal per-node data)",
       "✓",
       num(kraken.front().second.dedicated_write_seconds.mean(), 1) +
           " s → " +
           num(kraken.back().second.dedicated_write_seconds.mean(), 1) +
           " s over 576→9216"},
      {"BluePrint write time grows with data size", "✓",
       num(blueprint.front().second.dedicated_write_seconds.mean(), 1) +
           " s → " +
           num(blueprint.back().second.dedicated_write_seconds.mean(), 0) +
           " s over " + format_bytes(blueprint.front().first) + "→" +
           format_bytes(blueprint.back().first)},
  });

  trace::JitterReport jitter;
  for (const auto& [cores, res] : kraken) {
    jitter.add("Kraken " + std::to_string(cores) + " cores",
               "dedicated write", res.dedicated_write_seconds);
  }
  for (const auto& [bytes, res] : blueprint) {
    jitter.add("BluePrint " + format_bytes(bytes), "dedicated write",
               res.dedicated_write_seconds);
  }
  JsonObj m;
  m.add_num("kraken_spare_fraction_min", spare_min);
  m.add_num("kraken_spare_fraction_max", spare_max);
  m.add_num("blueprint_spare_fraction_min", bspare_min);
  m.add_num("blueprint_spare_fraction_max", bspare_max);
  m.add_num("kraken_write_s_576",
            kraken.front().second.dedicated_write_seconds.mean());
  m.add_num("kraken_write_s_9216",
            kraken.back().second.dedicated_write_seconds.mean());
  m.add_num("blueprint_write_s_smallest",
            blueprint.front().second.dedicated_write_seconds.mean());
  m.add_num("blueprint_write_s_largest",
            blueprint.back().second.dedicated_write_seconds.mean());
  rep.json = figure_json(rep.id, m, &jitter);
  return rep;
}

// ------------------------------------------------------------ fig5 plugins

/// Analytic cost model for the builtin in-situ chain (statistics +
/// minmax_index + downsample): every published byte is streamed through
/// three single-pass kernels, modelled at a fixed aggregate rate. A
/// model constant — not a wall-clock measurement — keeps the report
/// deterministic; the ctest case NodePlugins.ChainFitsTheIdleBudget is
/// where the real clock gets compared against the real idle budget.
constexpr double kPluginChainBytesPerSecond = 1.5 * 1024.0 * 1024.0 * 1024.0;

FigureReport fig5_plugins_report() {
  const double kIterSeconds = 230.0;
  struct Row {
    int cores = 0;
    double node_mb = 0.0;     // data per node per iteration
    double idle_s = 0.0;      // dedicated-core idle seconds per iteration
    double plugin_s = 0.0;    // modelled chain seconds per iteration
    double idle_share = 0.0;  // plugin_s / idle_s
    double spare_with = 0.0;  // spare fraction with the chain running
  };
  std::vector<Row> rows;
  for (int cores : kraken_scales()) {
    RunConfig cfg = kraken_config(StrategyKind::kDamaris, cores,
                                  /*iterations=*/5, /*write_interval=*/1,
                                  kIterSeconds);
    const RunResult res = run_strategy(cfg);
    Row r;
    r.cores = cores;
    const double node_bytes =
        static_cast<double>(res.bytes_per_phase) / res.nodes;
    r.node_mb = node_bytes / static_cast<double>(MiB);
    r.idle_s = res.dedicated_spare_fraction * kIterSeconds;
    r.plugin_s = node_bytes / kPluginChainBytesPerSecond;
    r.idle_share = r.idle_s > 0.0 ? r.plugin_s / r.idle_s : 0.0;
    r.spare_with =
        res.dedicated_spare_fraction - r.plugin_s / kIterSeconds;
    rows.push_back(r);
  }

  FigureReport rep;
  rep.id = "fig5_plugins";
  rep.heading =
      "## Figure 5 (cont.) — in-situ plugins inside the idle budget "
      "(`NodePlugins.ChainFitsTheIdleBudget`)";
  std::vector<std::vector<std::string>> table;
  table.push_back({"cores", "data/node/iter", "idle s/iter",
                   "plugin chain s/iter", "share of idle",
                   "spare w/ plugins"});
  for (const Row& r : rows) {
    table.push_back({std::to_string(r.cores), num(r.node_mb, 0) + " MiB",
                     num(r.idle_s, 1) + " s", num(r.plugin_s, 3) + " s",
                     num(r.idle_share * 100.0, 2) + "%",
                     num(r.spare_with * 100.0, 0) + "%"});
  }
  rep.body_md =
      md_table(table) +
      "\nThe builtin chain (statistics + min/max index + downsample) "
      "is modelled at 1.5 GiB/s aggregate over each node's published "
      "bytes; even at 9216 cores it consumes well under 1% of the "
      "dedicated core's idle time, so the paper's \"use the spare time "
      "for analytics\" claim (§IV-C3) holds with room to spare. "
      "The ctest case `NodePlugins.ChainFitsTheIdleBudget` enforces the "
      "same fit with measured wall clock on every CI run.\n";

  JsonObj m;
  m.add_num("iteration_seconds", kIterSeconds);
  m.add_num("chain_bytes_per_second", kPluginChainBytesPerSecond);
  std::string per_scale = "[";
  for (const Row& r : rows) {
    if (per_scale.size() > 1) per_scale += ", ";
    per_scale += "{\"cores\": " + std::to_string(r.cores) +
                 ", \"node_mb_per_iteration\": " + g6(r.node_mb) +
                 ", \"idle_s_per_iteration\": " + g6(r.idle_s) +
                 ", \"plugin_s_per_iteration\": " + g6(r.plugin_s) +
                 ", \"plugin_share_of_idle\": " + g6(r.idle_share) +
                 ", \"spare_fraction_with_plugins\": " + g6(r.spare_with) +
                 "}";
  }
  per_scale += "]";
  m.add_raw("per_scale", per_scale);
  rep.json = figure_json(rep.id, m, nullptr);
  return rep;
}

// ------------------------------------------------------------------- table1

FigureReport table1_report() {
  RunResult res[3];
  const StrategyKind kinds[] = {StrategyKind::kFilePerProcess,
                                StrategyKind::kCollectiveIo,
                                StrategyKind::kDamaris};
  for (int i = 0; i < 3; ++i) {
    res[i] = run_strategy(grid5000_config(kinds[i], 672, /*iterations=*/60,
                                          /*write_interval=*/20));
  }
  const double mib = static_cast<double>(MiB);
  const RunResult& fpp = res[0];

  FigureReport rep;
  rep.id = "table1";
  rep.heading = "## Table I — Grid'5000, 672 cores";
  rep.body_md = md_table({
      {"approach", "paper", "measured"},
      {"file-per-process", "695 MB/s",
       num(fpp.aggregate_throughput / mib, 0) + " MiB/s"},
      {"collective I/O", "636 MB/s",
       num(res[1].aggregate_throughput / mib, 0) + " MiB/s"},
      {"Damaris", "4.32 GB/s",
       gib_s(res[2].aggregate_throughput) + " GiB/s (" +
           num(res[2].aggregate_throughput / mib, 0) + " MiB/s)"},
      {"FPP slowest rank", ">25 s",
       num(fpp.rank_write_seconds.max(), 1) + " s"},
      {"FPP fastest rank", "<1 s",
       num(fpp.rank_write_seconds.min(), 1) +
           " s — **known deviation**: our FIFO/fair-share servers equalize "
           "clients; the paper's sub-second \"lucky\" ranks come from server "
           "write-back caches absorbing early writers, which we do not "
           "model"},
  });

  trace::JitterReport jitter;
  for (int i = 0; i < 3; ++i) {
    jitter.add("672 cores",
               std::string(strategies::strategy_name(kinds[i])) +
                   " rank write",
               res[i].rank_write_seconds);
  }
  JsonObj m;
  m.add_num("fpp_mib_s", fpp.aggregate_throughput / mib);
  m.add_num("collective_mib_s", res[1].aggregate_throughput / mib);
  m.add_num("damaris_mib_s", res[2].aggregate_throughput / mib);
  m.add_num("fpp_slowest_rank_s", fpp.rank_write_seconds.max());
  m.add_num("fpp_fastest_rank_s", fpp.rank_write_seconds.min());
  rep.json = figure_json(rep.id, m, &jitter);
  return rep;
}

// --------------------------------------------------------------------- fig7

FigureReport fig7_report() {
  using iopath::CompressionModel;
  using iopath::Scheduling;
  auto variant = [](RunConfig cfg, CompressionModel compression,
                    Scheduling scheduling) {
    cfg.damaris.compression = compression;
    cfg.damaris.scheduling = scheduling;
    return run_strategy(cfg);
  };
  const RunConfig kraken =
      kraken_config(StrategyKind::kDamaris, 2304, /*iterations=*/5,
                    /*write_interval=*/1, /*iteration_seconds=*/230.0);
  RunConfig g5k = grid5000_config(StrategyKind::kDamaris, 912,
                                  /*iterations=*/5, /*write_interval=*/1);
  g5k.workload.seconds_per_iteration = 230.0;

  const CompressionModel none = CompressionModel::none();
  const RunResult kr_plain = variant(kraken, none, Scheduling::kNone);
  const RunResult kr_sched = variant(kraken, none, Scheduling::kSlots);
  const RunResult kr_comp =
      variant(kraken, CompressionModel::lossless(), Scheduling::kNone);
  const RunResult kr_p16 =
      variant(kraken, CompressionModel::visualization(), Scheduling::kNone);
  const RunResult g5_plain = variant(g5k, none, Scheduling::kNone);
  const RunResult g5_sched = variant(g5k, none, Scheduling::kSlots);

  const double interval = 230.0;  // one write per 230 s iteration
  auto busy = [&](const RunResult& r) {
    return interval * (1.0 - r.dedicated_spare_fraction);
  };
  auto ratio = [](const RunResult& r) {
    return static_cast<double>(r.bytes_per_phase) /
           static_cast<double>(r.stored_bytes_per_phase);
  };

  FigureReport rep;
  rep.id = "fig7";
  rep.heading = "## Figure 7 + §IV-D — compression & scheduling";
  rep.body_md = md_table({
      {"quantity", "paper", "measured"},
      {"Slot scheduling at 2304 cores", "9.7 → 13.1 GB/s",
       gib_s(kr_plain.aggregate_throughput, 1) + " → " +
           gib_s(kr_sched.aggregate_throughput, 1) + " GiB/s (×" +
           num(kr_sched.aggregate_throughput / kr_plain.aggregate_throughput,
               2) +
           " vs ×1.35)"},
      {"Scheduling reduces dedicated write time on both platforms", "✓",
       "Kraken " + num(kr_plain.dedicated_write_seconds.mean(), 1) + "→" +
           num(kr_sched.dedicated_write_seconds.mean(), 1) +
           " s, Grid'5000 " +
           num(g5_plain.dedicated_write_seconds.mean(), 1) + "→" +
           num(g5_sched.dedicated_write_seconds.mean(), 1) + " s"},
      {"Lossless compression ratio", "187%",
       num(ratio(kr_comp) * 100.0, 0) +
           "% (simulated); real from-scratch codecs (xor-delta + LZ77 + "
           "Huffman) on a CM1-like field with a turbulent storm region: "
           "177% (pinned in `tests/format_test.cpp`)"},
      {"16-bit + lossless ratio", "~600%",
       num(ratio(kr_p16) * 100.0, 0) +
           "% (simulated); real codecs: ~780% on the same field"},
      {"Compression costs spare time on Kraken (tradeoff)", "✓",
       "busy/iter " + num(busy(kr_plain), 1) + " s → " +
           num(busy(kr_comp), 1) +
           " s with gzip-class rate (45 MiB/s/core)"},
  });

  trace::JitterReport jitter;
  jitter.add("Kraken 2304", "plain dedicated write",
             kr_plain.dedicated_write_seconds);
  jitter.add("Kraken 2304", "+scheduling dedicated write",
             kr_sched.dedicated_write_seconds);
  jitter.add("Grid'5000 912", "plain dedicated write",
             g5_plain.dedicated_write_seconds);
  jitter.add("Grid'5000 912", "+scheduling dedicated write",
             g5_sched.dedicated_write_seconds);
  JsonObj m;
  m.add_num("kraken_plain_gib_s",
            kr_plain.aggregate_throughput / static_cast<double>(GiB));
  m.add_num("kraken_sched_gib_s",
            kr_sched.aggregate_throughput / static_cast<double>(GiB));
  m.add_num("kraken_plain_write_s", kr_plain.dedicated_write_seconds.mean());
  m.add_num("kraken_sched_write_s", kr_sched.dedicated_write_seconds.mean());
  m.add_num("g5k_plain_write_s", g5_plain.dedicated_write_seconds.mean());
  m.add_num("g5k_sched_write_s", g5_sched.dedicated_write_seconds.mean());
  m.add_num("lossless_ratio_pct", ratio(kr_comp) * 100.0);
  m.add_num("precision16_ratio_pct", ratio(kr_p16) * 100.0);
  m.add_num("busy_per_iter_plain_s", busy(kr_plain));
  m.add_num("busy_per_iter_compression_s", busy(kr_comp));
  rep.json = figure_json(rep.id, m, &jitter);
  return rep;
}

// ---------------------------------------------------------------- breakeven

FigureReport breakeven_report() {
  const double p24 = breakeven_io_percent(24);
  const double p12 = breakeven_io_percent(12);
  // Worst-case margin at exactly p*: should be zero by construction
  // (C_std = 100 s, W_std = p* percent of it, W_ded = N * W_std).
  const double c_std = 100.0;
  const double w_std = c_std * p24 / 100.0;
  const double margin_at_p24 =
      dedicated_core_margin(w_std, c_std, 24, 24 * w_std);

  // Simulated crossover on a Kraken slice (N = 12): sweep the I/O
  // fraction via the output cadence, find where Damaris starts winning.
  double lose_frac = 0.0, win_frac = 0.0;
  std::string sweep = "[";
  for (int interval : {200, 100, 50, 20, 5, 1}) {
    const int iterations = interval;  // exactly one write phase per run
    auto mk = [&](StrategyKind kind) {
      return run_strategy(kraken_config(kind, 1152, iterations, interval));
    };
    const RunResult fpp = mk(StrategyKind::kFilePerProcess);
    const RunResult dam = mk(StrategyKind::kDamaris);
    const double fpp_iter = fpp.total_runtime / iterations;
    const double dam_iter = dam.total_runtime / iterations;
    const double io_frac = fpp.phase_seconds.mean() / fpp.total_runtime * 100;
    const bool wins = dam_iter < fpp_iter;
    if (wins && win_frac == 0.0) win_frac = io_frac;
    if (!wins) lose_frac = io_frac;
    if (sweep.size() > 1) sweep += ", ";
    sweep += "{\"write_interval\": " + std::to_string(interval) +
             ", \"io_fraction_pct\": " + g6(io_frac) +
             ", \"fpp_s_per_iter\": " + g6(fpp_iter) +
             ", \"damaris_s_per_iter\": " + g6(dam_iter) +
             ", \"damaris_wins\": " + (wins ? "true" : "false") + "}";
  }
  sweep += "]";

  FigureReport rep;
  rep.id = "breakeven";
  rep.heading = "## §V-A — break-even model";
  rep.body_md = md_table({
      {"quantity", "paper", "measured"},
      {"p = 100/(N−1); N=24 → " + num(p24, 2) + "%", "✓",
       "exact (analytic)"},
      {"Worst-case margin zero exactly at p*", "✓",
       "exact (margin at p* = " + g6(margin_at_p24) + " s)"},
      {"Simulated crossover for N=12 (p* = " + num(p12, 2) + "%)", "—",
       "Damaris starts winning between " + num(lose_frac, 1) + "% and " +
           num(win_frac, 1) + "% measured I/O fraction"},
  });

  JsonObj m;
  m.add_num("breakeven_pct_n24", p24);
  m.add_num("breakeven_pct_n12", p12);
  m.add_num("worst_case_margin_at_pstar_s", margin_at_p24);
  m.add_num("crossover_lower_pct", lose_frac);
  m.add_num("crossover_upper_pct", win_frac);
  m.add_raw("sweep", sweep);
  rep.json = figure_json(rep.id, m, nullptr);
  return rep;
}

// ------------------------------------------------- facility capacity

/// One cell of the capacity-planning sweep (facility_storm_spec).
facility::FacilityOutcome run_facility_storm(int tenants, bool sharded) {
  return facility::Facility(facility_storm_spec(tenants, sharded)).run();
}

FigureReport facility_report() {
  std::vector<std::vector<std::string>> rows = {
      {"tenants", "serialized MDS", "sharded MDS (16×2)", "speedup",
       "fairness (sharded)"}};
  std::string sweep = "[";
  for (int tenants : {8, 16, 32, 64}) {
    const facility::FacilityOutcome serial =
        run_facility_storm(tenants, /*sharded=*/false);
    const facility::FacilityOutcome shard =
        run_facility_storm(tenants, /*sharded=*/true);
    const double gain = serial.aggregate_bandwidth > 0.0
                            ? shard.aggregate_bandwidth /
                                  serial.aggregate_bandwidth
                            : 0.0;
    rows.push_back({std::to_string(tenants),
                    num(serial.makespan, 1) + " s makespan",
                    num(shard.makespan, 1) + " s makespan",
                    num(gain, 2) + "×", num(shard.fairness_index, 3)});
    if (sweep.size() > 1) sweep += ", ";
    sweep += "{\"tenants\": " + std::to_string(tenants) +
             ", \"serialized_makespan_s\": " + g6(serial.makespan) +
             ", \"sharded_makespan_s\": " + g6(shard.makespan) +
             ", \"speedup\": " + g6(gain) +
             ", \"sharded_fairness\": " + g6(shard.fairness_index) + "}";
  }
  sweep += "]";

  FigureReport rep;
  rep.id = "facility";
  rep.heading =
      "## Capacity planning — multi-tenant facility "
      "(`Facility.ShardedMdsAbsorbsACreateStorm`)";
  rep.body_md =
      md_table(rows) +
      "\nBeyond the paper: many applications share one simulated machine "
      "and file system (src/facility/). Each cell admits N single-node "
      "file-per-process tenants onto a 16-node facility under a "
      "create-storm regime (50 ms per create — a saturated Lustre-class "
      "MDS), so the metadata service is the bottleneck by construction. "
      "The serialized single-server MDS queues every create; the "
      "hash-partitioned 16-shard service (2 replicas per shard for "
      "reads) spreads them, and the gap widens as tenants pile up — the "
      "capacity-planning question is exactly how many tenants a facility "
      "can admit before metadata, not data, runs out. The elastic "
      "placement ladder (dedicated core → dedicated node → staging "
      "tier) and its SLO guarantees are gated separately by the ctest "
      "case `Facility.ElasticLadderHoldsTheP95Slo`.\n";

  JsonObj m;
  m.add_raw("sweep", sweep);
  rep.json = figure_json(rep.id, m, nullptr);
  return rep;
}

}  // namespace

std::vector<FigureReport> generate_figure_reports() {
  std::vector<FigureReport> reports;
  const std::vector<KrakenRun> kraken = run_kraken_sweep();  // fig2 + fig6
  reports.push_back(fig2_report(kraken));
  reports.push_back(fig3_report());
  reports.push_back(fig4_report());
  reports.push_back(fig5_report());
  reports.push_back(fig5_plugins_report());
  reports.push_back(fig6_report(kraken));
  reports.push_back(table1_report());
  reports.push_back(fig7_report());
  reports.push_back(breakeven_report());
  reports.push_back(facility_report());
  return reports;
}

std::string figure_reports_markdown(
    const std::vector<FigureReport>& reports) {
  std::string out;
  for (const FigureReport& r : reports) {
    out += r.heading + "\n\n" + r.body_md + "\n";
  }
  // Drop the trailing blank line so the END marker sits right after the
  // last section.
  if (!out.empty() && out.back() == '\n') out.pop_back();
  return out;
}

std::string figure_reports_json(const std::vector<FigureReport>& reports) {
  std::string out =
      "{\n\"schema\": \"dmr-experiments-report-v1\",\n\"figures\": {\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (i > 0) out += ",\n";
    out += "\"" + reports[i].id + "\": " + reports[i].json;
  }
  out += "\n}\n}\n";
  return out;
}

}  // namespace dmr::experiments
