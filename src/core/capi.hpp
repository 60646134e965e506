// C-style client API matching the paper's §III-D function set:
//
//   df_initialize / df_finalize
//   df_write("varname", step, data)
//   df_signal("eventname", step)
//   dc_alloc / dc_commit
//
// The original runs clients as separate processes; here a "node" is set
// up once with df_setup() and each client thread attaches with
// df_initialize(client_id). All functions return 0 on success and a
// negative errno-style value on failure (the message is retrievable via
// df_last_error()): -2 when the node or client is not set up (or the
// node is set up twice), -3 for an argument rejected before the node
// sees it (a null pointer, an out-of-range count or client id, an
// unknown df_write variable), -1 when the node reports an error.
#pragma once

#include <cstdint>

namespace dmr::core::capi {

/// Creates the per-node Damaris instance from an XML configuration file
/// and starts the dedicated core, for `num_clients` >= 1 clients.
/// `output_dir` may be null (the default directory). Call once per
/// process; a failed setup keeps no node, so it may be retried.
int df_setup(const char* configuration_path, int num_clients,
             const char* output_dir);

/// Tears the node down (joins the dedicated core thread).
int df_teardown();

/// Attaches the calling thread as client `client_id`.
int df_initialize(int client_id);

/// Detaches and finalizes the calling client.
int df_finalize();

/// Copies `data` (size from the configured layout) into shared memory,
/// on the calling thread; `data` is free for reuse once it returns.
int df_write(const char* variable, std::int64_t step, const void* data);

/// Sends a user event.
int df_signal(const char* event, std::int64_t step);

/// Marks the end of the calling client's iteration `step`.
int df_end_iteration(std::int64_t step);

/// Zero-copy path: returns a pointer to the variable's reserved block
/// (nullptr on failure); publish with dc_commit.
void* dc_alloc(const char* variable, std::int64_t step);
int dc_commit(const char* variable, std::int64_t step);

/// Last error message for the calling thread ("" if none).
const char* df_last_error();

}  // namespace dmr::core::capi
