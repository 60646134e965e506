// Ablation (§IV-D + §VI future work): how should dedicated cores
// schedule their writes?
//
//   none          all dedicated cores write as soon as data is ready —
//                 they collide at the file system;
//   local slots   the paper's §IV-D algorithm: each core computes a slot
//                 from a local estimate of the iteration length, no
//                 communication at all;
//   coordinated   the paper's §VI future-work direction: the cores pass
//                 a bounded set of write tokens among themselves,
//                 capping concurrency exactly (here: idealized zero-cost
//                 tokens, an upper bound on what coordination can buy).
//
// Expected shape: both schedulers cut the per-write time; local slots
// get most of the benefit without any communication, which is the
// paper's argument for them.
#include <cstdio>

#include "bench_util.hpp"
#include "experiments/experiments.hpp"

using namespace dmr;
using strategies::RunConfig;
using strategies::StrategyKind;

namespace {

void run_scale(int cores) {
  std::printf("\nKraken, %d cores, ~230 s iterations:\n", cores);
  Table t({"scheduler", "write avg (s)", "write max (s)",
           "throughput (GiB/s)", "spare fraction"});
  struct Mode {
    const char* name;
    bool slots;
    bool tokens;
  };
  for (const Mode& m : {Mode{"none", false, false},
                        Mode{"local slots (SIV-D)", true, false},
                        Mode{"coordinated tokens (SVI)", false, true}}) {
    RunConfig cfg = experiments::kraken_config(StrategyKind::kDamaris, cores,
                                               /*iterations=*/4,
                                               /*write_interval=*/1,
                                               /*iteration_seconds=*/230.0);
    cfg.damaris.slot_scheduling = m.slots;
    cfg.damaris.coordinated_scheduling = m.tokens;
    auto res = run_strategy(cfg);
    t.add_row({m.name, Table::num(res.dedicated_write_seconds.mean(), 2),
               Table::num(res.dedicated_write_seconds.max(), 2),
               bench::gib_per_s(res.aggregate_throughput),
               Table::num(res.dedicated_spare_fraction, 3)});
  }
  t.print();
}

}  // namespace

int main() {
  bench::banner("Ablation — write scheduling on the dedicated cores",
                "Section IV-D (slots) and Section VI future work "
                "(coordination)",
                "both schedulers cut write time; local slots need no "
                "communication");
  run_scale(2304);
  run_scale(9216);
  return 0;
}
