// Umbrella header for the Damaris reproduction library.
//
// The library splits into two halves that share the allocator, codec and
// scheduler code:
//
//  * the real middleware — run Damaris in your own (threaded) program:
//      dmr::config::Config      XML configuration (layouts, variables,
//                               events)
//      dmr::core::DamarisNode   the node: shared buffer + dedicated core
//      dmr::core::Client        per-compute-core handle (write / signal /
//                               alloc / commit / end_iteration / finalize)
//      dmr::core::capi          the paper's df_* / dc_* C-style API
//      dmr::format::Dh5Reader   read the self-describing output files
//
//  * the cluster simulator — reproduce the paper's evaluation at up to
//    ~10k simulated cores:
//      dmr::cluster::kraken / grid5000 / blueprint   platform presets
//      dmr::strategies::run_strategy                 FPP / collective /
//                                                    Damaris / no-I/O runs
//      dmr::experiments::*                           canned paper setups
//
// See examples/quickstart.cpp for the 60-second tour.
#pragma once

// Real middleware.
#include "config/config.hpp"     // IWYU pragma: export
#include "core/capi.hpp"         // IWYU pragma: export
#include "core/damaris.hpp"      // IWYU pragma: export
#include "core/metadata.hpp"     // IWYU pragma: export
#include "core/persistency.hpp"  // IWYU pragma: export
#include "core/plugin.hpp"       // IWYU pragma: export
#include "format/dh5.hpp"        // IWYU pragma: export
#include "format/pipeline.hpp"   // IWYU pragma: export
#include "shm/event_queue.hpp"   // IWYU pragma: export
#include "shm/shared_buffer.hpp" // IWYU pragma: export

// Mini-CM1 application.
#include "cm1/solver.hpp"    // IWYU pragma: export
#include "cm1/workload.hpp"  // IWYU pragma: export

// Post-processing and in-situ visualization.
#include "postproc/catalog.hpp"  // IWYU pragma: export
#include "vis/render.hpp"        // IWYU pragma: export

// Cluster simulator.
#include "cluster/presets.hpp"          // IWYU pragma: export
#include "experiments/experiments.hpp"  // IWYU pragma: export
#include "strategies/strategy.hpp"      // IWYU pragma: export
