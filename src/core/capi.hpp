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
// df_last_error()).
#pragma once

#include <cstdint>

namespace dmr::core::capi {

/// Creates the per-node Damaris instance from an XML configuration file
/// and starts the dedicated core. Call once per process.
int df_setup(const char* configuration_path, int num_clients,
             const char* output_dir);

/// Tears the node down (joins the dedicated core thread).
int df_teardown();

/// Attaches the calling thread as client `client_id`.
int df_initialize(int client_id);

/// Detaches and finalizes the calling client.
int df_finalize();

/// Copies `data` (size from the configured layout) into shared memory.
int df_write(const char* variable, std::int64_t step, const void* data);

/// df_write with a ticket: copies `data` into shared memory on the
/// calling thread, like df_write, and returns a positive ticket handle
/// (negative on failure) whose write has already completed. Collect its
/// status with df_wait or df_wait_all; df_test polls it. Handles are
/// per-thread.
std::int64_t df_write_async(const char* variable, std::int64_t step,
                            const void* data);

/// Blocks until the ticket completes; returns its final status (0 ok)
/// and releases the handle.
int df_wait(std::int64_t ticket);

/// Non-blocking poll: 1 when done, 0 while pending (a handle from
/// df_write_async is done when returned), negative for an unknown
/// handle. Does not release the handle.
int df_test(std::int64_t ticket);

/// Waits for every outstanding async ticket of the calling thread;
/// returns the first failure (0 when all succeeded). Releases them.
int df_wait_all();

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
