// Facade: model-check the shared-memory handoff protocol.
//
// check_shm_protocol() builds the scenario, installs the requested
// mutations into shm::test_hooks() for the duration of the exploration,
// runs the sleep-set DFS (mc/scheduler.hpp) with both engines attached
// (check::ProtocolChecker + mc::HbRaceDetector), and — when a
// counterexample is found and `trace_out` is non-empty — replays the
// minimized schedule into a Chrome trace (one lane per virtual thread,
// one unit of time per scheduler step, an instant marking the
// violation) via src/trace/.
#pragma once

#include <string>

#include "mc/scenario.hpp"
#include "mc/scheduler.hpp"

namespace dmr::mc {

McResult check_shm_protocol(const ScenarioOptions& scenario,
                            const ModelOptions& model = {},
                            const std::string& trace_out = "");

}  // namespace dmr::mc
