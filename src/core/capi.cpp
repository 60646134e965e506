#include "core/capi.hpp"

#include <memory>
#include <span>
#include <string>

#include "common/thread_annotations.hpp"
#include "core/damaris.hpp"

namespace dmr::core::capi {

namespace {

Mutex g_mutex;
std::unique_ptr<DamarisNode> g_node DMR_GUARDED_BY(g_mutex);
thread_local int t_client_id = -1;
thread_local std::string t_last_error;

int fail(const std::string& msg, int code = -1) {
  t_last_error = msg;
  return code;
}

/// -3 naming `what` when a pointer argument is null, else 0.
int null_arg(const void* p, const char* what) {
  return p == nullptr ? fail(std::string(what) + " is null", -3) : 0;
}

int check(const Status& s) {
  if (s.is_ok()) {
    t_last_error.clear();
    return 0;
  }
  return fail(s.to_string());
}

DamarisNode* node_or_null() {
  MutexLock lock(g_mutex);
  return g_node.get();
}

}  // namespace

int df_setup(const char* configuration_path, int num_clients,
             const char* output_dir) {
  if (int rc = null_arg(configuration_path, "configuration path")) return rc;
  if (num_clients < 1) return fail("num_clients must be at least 1", -3);
  auto cfg = config::Config::from_file(configuration_path);
  if (!cfg.is_ok()) return fail(cfg.status().to_string());
  NodeOptions opts;
  if (output_dir) opts.output_dir = output_dir;
  MutexLock lock(g_mutex);
  if (g_node) return fail("df_setup called twice", -2);
  g_node = std::make_unique<DamarisNode>(std::move(cfg.value()), num_clients,
                                         opts);
  return check(g_node->start());
}

int df_teardown() {
  MutexLock lock(g_mutex);
  if (!g_node) return fail("no node", -2);
  Status s = g_node->stop();
  g_node.reset();
  return check(s);
}

int df_initialize(int client_id) {
  DamarisNode* node = node_or_null();
  if (!node) return fail("df_setup must be called first", -2);
  if (client_id < 0 || client_id >= node->num_clients()) {
    return fail("client id out of range", -3);
  }
  t_client_id = client_id;
  t_last_error.clear();
  return 0;
}

int df_finalize() {
  DamarisNode* node = node_or_null();
  if (!node || t_client_id < 0) return fail("not initialized", -2);
  const int rc = check(node->client(t_client_id).finalize());
  t_client_id = -1;
  return rc;
}

int df_write(const char* variable, std::int64_t step, const void* data) {
  if (int rc = null_arg(variable, "variable")) return rc;
  if (int rc = null_arg(data, "data")) return rc;
  DamarisNode* node = node_or_null();
  if (!node || t_client_id < 0) return fail("not initialized", -2);
  const format::Layout* layout = node->config().layout_of(variable);
  if (!layout) return fail(std::string("unknown variable ") + variable, -3);
  const std::span<const std::byte> span(
      static_cast<const std::byte*>(data), layout->byte_size());
  return check(node->client(t_client_id).write(variable, step, span));
}

int df_signal(const char* event, std::int64_t step) {
  if (int rc = null_arg(event, "event")) return rc;
  DamarisNode* node = node_or_null();
  if (!node || t_client_id < 0) return fail("not initialized", -2);
  return check(node->client(t_client_id).signal(event, step));
}

int df_end_iteration(std::int64_t step) {
  DamarisNode* node = node_or_null();
  if (!node || t_client_id < 0) return fail("not initialized", -2);
  return check(node->client(t_client_id).end_iteration(step));
}

void* dc_alloc(const char* variable, std::int64_t step) {
  if (null_arg(variable, "variable") != 0) return nullptr;
  DamarisNode* node = node_or_null();
  if (!node || t_client_id < 0) {
    fail("not initialized", -2);
    return nullptr;
  }
  auto r = node->client(t_client_id).alloc(variable, step);
  if (!r.is_ok()) {
    fail(r.status().to_string());
    return nullptr;
  }
  t_last_error.clear();
  return r.value().data();
}

int dc_commit(const char* variable, std::int64_t step) {
  if (int rc = null_arg(variable, "variable")) return rc;
  DamarisNode* node = node_or_null();
  if (!node || t_client_id < 0) return fail("not initialized", -2);
  return check(node->client(t_client_id).commit(variable, step));
}

const char* df_last_error() { return t_last_error.c_str(); }

}  // namespace dmr::core::capi
