// Command-line driver for the shm-protocol model checker (src/mc/).
//
//   ./mc_explore                         # honest 2x3 partitioned scenario
//   ./mc_explore --producers 3 --handoffs 2
//   ./mc_explore --first-fit
//   ./mc_explore --mutate double-release --trace cex.json
//   ./mc_explore --mutate lost-wakeup
//   ./mc_explore --mutate park-without-recheck
//
// Prints the exploration summary; on a violation, prints the minimized
// counterexample schedule and (with --trace) writes a Chrome trace of
// the replay, viewable in Perfetto / chrome://tracing.
#include <cstdlib>
#include <iostream>
#include <string>

#include "mc/model_checker.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --producers N      compute cores pushing handoffs (default 2)\n"
      << "  --handoffs N       handoffs per producer (default 3)\n"
      << "  --first-fit        mutex first-fit allocator (default "
         "partitioned)\n"
      << "  --producer-close   last producer closes the queue (default "
         "consumer)\n"
      << "  --wait-model       model the queue's sleep handshake explicitly\n"
      << "  --mutate BUG       double-release | write-after-publish | "
         "lost-wakeup | park-without-recheck\n"
      << "  --budget SECONDS   exploration time budget (default 55)\n"
      << "  --trace FILE       export a counterexample Chrome trace\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using dmr::mc::ScenarioOptions;

  ScenarioOptions scenario;
  dmr::mc::ModelOptions model;
  std::string trace_out;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--producers") {
      scenario.producers = std::atoi(next());
    } else if (arg == "--handoffs") {
      scenario.handoffs = std::atoi(next());
    } else if (arg == "--first-fit") {
      scenario.policy = dmr::shm::AllocPolicy::kMutexFirstFit;
    } else if (arg == "--producer-close") {
      scenario.close_by = ScenarioOptions::CloseBy::kProducerLast;
    } else if (arg == "--wait-model") {
      scenario.model_waiting = true;
    } else if (arg == "--budget") {
      model.time_budget_s = std::atof(next());
    } else if (arg == "--trace") {
      trace_out = next();
    } else if (arg == "--mutate") {
      const std::string bug = next();
      if (bug == "double-release") {
        scenario.mutate_double_release = true;
      } else if (bug == "write-after-publish") {
        scenario.mutate_write_after_publish = true;
      } else if (bug == "lost-wakeup") {
        // Lost wakeups only exist when the wait is modeled and someone
        // other than the waiter closes the queue.
        scenario.mutate_skip_close_notify = true;
        scenario.model_waiting = true;
        scenario.close_by = ScenarioOptions::CloseBy::kProducerLast;
      } else if (bug == "park-without-recheck") {
        // A push that read the sleep announcement just before the
        // consumer made it wakes nobody; with the consumer closing,
        // nothing else will.
        scenario.mutate_park_without_recheck = true;
        scenario.model_waiting = true;
      } else {
        std::cerr << "unknown mutation: " << bug << "\n";
        return 2;
      }
    } else {
      return usage(argv[0]);
    }
  }

  std::cout << "scenario: " << scenario.to_string() << "\n";
  const dmr::mc::McResult result =
      dmr::mc::check_shm_protocol(scenario, model, trace_out);
  std::cout << result.summary() << "\n";
  if (result.cex) {
    std::cout << "\n" << result.cex->to_string();
    return 1;
  }
  return 0;
}
