// Experiment harness: canned configurations reproducing the paper's
// evaluation setups (§IV-B) and small helpers shared by the figure
// generators (report.hpp), the bench harnesses and the examples.
#pragma once

#include <vector>

#include "cluster/presets.hpp"
#include "strategies/strategy.hpp"

namespace dmr::experiments {

/// The Kraken core counts of Figures 2, 4 and 6.
std::vector<int> kraken_scales();  // {576, 1152, 2304, 4608, 9216}

/// Kraken run: `cores` total cores (multiple of 12), CM1 weak-scaled
/// subdomains, writes every `write_interval` iterations.
strategies::RunConfig kraken_config(strategies::StrategyKind kind, int cores,
                                    int iterations, int write_interval,
                                    SimTime iteration_seconds = 4.1,
                                    std::uint64_t seed = 2012);

/// Grid'5000 run: 672 cores (28 nodes x 24) like Table I, ~24 MB/process.
strategies::RunConfig grid5000_config(strategies::StrategyKind kind,
                                      int cores, int iterations,
                                      int write_interval,
                                      std::uint64_t seed = 2012);

/// BluePrint run: 1024 cores (64 nodes x 16); the output volume is swept
/// by `bytes_per_point` (the paper enables/disables variables).
strategies::RunConfig blueprint_config(strategies::StrategyKind kind,
                                       int cores, int iterations,
                                       int write_interval,
                                       double bytes_per_point,
                                       std::uint64_t seed = 2012);

/// §V-A analytic break-even: dedicating 1 of N cores pays off when the
/// application spends at least p% of its time in I/O, p = 100 / (N - 1).
double breakeven_io_percent(int cores_per_node);

/// §V-A inequality W_std + C_std > max(C_ded, W_ded): margin (in
/// seconds) by which dedicating one of N cores wins. C_ded is
/// C_std * N/(N-1) (optimal reparallelization over one fewer core);
/// `w_ded` is the dedicated core's write time — the paper analyses the
/// worst case w_ded = N * w_std, but measures (§IV-C3) that gathering
/// into large files makes the dedicated write *cheaper* than N times a
/// standard write. Positive margin = beneficial.
double dedicated_core_margin(double w_std, double c_std, int cores_per_node,
                             double w_ded);

/// Convenience for the paper's worst case (w_ded = N * w_std).
bool dedicated_core_beneficial(double w_std, double c_std, int cores_per_node);

}  // namespace dmr::experiments
