// Task-aware asynchronous write API (TASIO-shaped, see PAPERS.md).
//
// The paper's dedicated core exists to overlap computation with I/O,
// but a blocking Client::write() can never *express* that overlap: the
// compute core stalls for the shm handoff even though nothing forces it
// to. The async surface makes the handoff itself a task:
//
//   dmr::core::WriteBatch batch;
//   auto t1 = client.write_async("u", step, data_u);
//   auto t2 = client.write_async("v", step, data_v,
//                                {.after = {t1}});   // ordered after t1
//   ... keep computing ...
//   batch.add(t1); batch.add(t2);
//   Status st = batch.wait_all();                    // or t2.wait()
//
// Semantics:
//  - Submission order per client is execution order (a per-client FIFO
//    worker), except that a ticket with dependences (`after`) holds the
//    worker until each dependence completes. Dependences may come from
//    other clients or nodes; cycles are impossible by construction — a
//    ticket can only depend on tickets that already exist.
//  - The payload is copied at submission, so the caller's buffer is
//    free the moment write_async() returns (the dc_alloc/dc_commit pair
//    remains the zero-copy path).
//  - A completion callback runs on the worker thread after the final
//    Status/WriteOutcome are set and *before* the ticket reports done —
//    wait() returning (or done() turning true) implies the callback has
//    finished.
//  - Only write_async uses the worker. The blocking Client::write()/
//    write_sized()/commit() run on the caller, after fencing the
//    client's outstanding tickets, and take no ticket; the worker calls
//    the same write function, so there is one write code path.
//  - Client::end_iteration()/finalize() fence the same way, preserving
//    the blocking API's ordering guarantees for mixed async/blocking
//    programs.
//
// Thread-safety: WriteTicket and WriteBatch are value types sharing an
// internal state block guarded by its own mutex (annotated for
// -Wthread-safety); they may be polled, waited on and copied from any
// thread.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "common/thread_annotations.hpp"

namespace dmr::core {

class Client;
class DamarisNode;
class WriteTicket;

/// How an asynchronous write reached (or failed to reach) stable
/// ground. Mirrors the degrade ladder of the blocking path.
enum class WriteOutcome : int {
  kPending = 0,       // not completed yet
  kPublished = 1,     // staged into shm; the dedicated core owns it
  kSyncFallback = 2,  // degraded: the client wrote its own file
  kDropped = 3,       // degraded: dropped with accounting (opt-in)
  kFailed = 4,        // no fallback allowed; status() holds the cause
};

namespace detail {

/// Shared completion state of one ticket. `status`/`outcome` are
/// published before the callback runs; `done` flips only after the
/// callback returns (see the ordering contract above).
struct TicketState {
  explicit TicketState(std::uint64_t ticket_id) : id(ticket_id) {}

  const std::uint64_t id;
  mutable Mutex mutex;
  mutable CondVar cv;
  bool done DMR_GUARDED_BY(mutex) = false;
  Status status DMR_GUARDED_BY(mutex) = Status::ok();
  WriteOutcome outcome DMR_GUARDED_BY(mutex) = WriteOutcome::kPending;
  /// Node-wide completion order (1-based); 0 while pending. The async
  /// determinism tests compare these timelines across seeded runs.
  std::uint64_t completion_seq DMR_GUARDED_BY(mutex) = 0;
};

using TicketStatePtr = std::shared_ptr<TicketState>;

}  // namespace detail

/// Completion callback; runs on the submission worker thread.
using WriteCallback = std::function<void(const WriteTicket&)>;

/// Handle to one asynchronous write. Copyable and cheap; all copies
/// observe the same completion.
class WriteTicket {
 public:
  WriteTicket() = default;  // invalid handle (valid() == false)

  bool valid() const { return state_ != nullptr; }
  /// Node-wide submission id (1-based); 0 for an invalid ticket.
  std::uint64_t id() const { return state_ ? state_->id : 0; }

  /// Non-blocking: true once the write completed *and* its completion
  /// callback (if any) returned.
  bool done() const;
  /// Blocks until completion; returns the final Status. An invalid
  /// ticket fails immediately.
  Status wait() const;
  /// Final Status; Status::ok() while still pending (check done() or
  /// outcome() to distinguish).
  Status status() const;
  /// kPending until the write completed.
  WriteOutcome outcome() const;
  /// Node-wide completion order (1-based); 0 while pending.
  std::uint64_t completion_seq() const;

 private:
  friend class Client;
  friend class DamarisNode;
  explicit WriteTicket(detail::TicketStatePtr state)
      : state_(std::move(state)) {}

  detail::TicketStatePtr state_;
};

/// Submission options for Client::write_async().
struct AsyncWriteOptions {
  /// Tickets that must complete before this write executes (ordering
  /// dependences, possibly across clients or nodes).
  std::vector<WriteTicket> after;
  /// Runs on the worker thread once Status/WriteOutcome are final,
  /// before the ticket reports done.
  WriteCallback on_complete;
};

/// Convenience aggregate of tickets ("wait for this iteration's
/// writes"). Not thread-safe for concurrent add(); waiting from other
/// threads is fine.
class WriteBatch {
 public:
  void add(WriteTicket ticket) { tickets_.push_back(std::move(ticket)); }
  std::size_t size() const { return tickets_.size(); }
  bool empty() const { return tickets_.empty(); }
  const std::vector<WriteTicket>& tickets() const { return tickets_; }

  /// True when every ticket (and its callback) completed.
  bool all_done() const;
  /// Waits for every ticket; returns the first non-ok Status in
  /// submission order (Status::ok() when all succeeded).
  Status wait_all() const;

 private:
  std::vector<WriteTicket> tickets_;
};

}  // namespace dmr::core
