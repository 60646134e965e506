// Task-aware asynchronous write API (TASIO-shaped, see PAPERS.md).
//
// The paper's dedicated core exists to overlap computation with I/O:
// a write is one copy into shared memory, and persistence proceeds on
// the dedicated core while the client computes its next step. The
// async surface names that handoff as a task, so writes can be
// ordered, observed and awaited uniformly:
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
//  - write_async runs on the calling thread, like the blocking
//    Client::write(): it waits for each `after` ticket to resolve,
//    copies the payload straight into shared memory and notifies the
//    dedicated core, all through the one write function the blocking
//    path uses. It takes no thread hop, so it returns with its ticket
//    done, and the caller's buffer is free at once (the
//    dc_alloc/dc_commit pair remains the zero-copy path).
//  - A dependence is met once its write resolved (status and outcome
//    set), not once its callback returned, so a callback may name its
//    own ticket in `after`. Dependences may come from other clients or
//    nodes; cycles are impossible by construction — a ticket can only
//    depend on tickets that already exist.
//  - A full shared buffer blocks write_async in allocation, exactly as
//    it blocks write(), up to the same timeout and degrade ladder.
//  - The completion callback runs on the calling thread after the final
//    Status/WriteOutcome are set and *before* the ticket reports done —
//    wait() returning (or done() turning true) implies the callback has
//    finished. completion_seq numbers completions densely, node-wide,
//    in the order their outcomes were set.
//  - A client's tickets are therefore all complete before its thread
//    reaches write(), commit(), end_iteration() or finalize(), so mixed
//    async/blocking programs keep the blocking API's ordering.
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

/// Completion callback; runs on the thread that called write_async.
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
  /// Tickets whose writes must resolve before this write executes
  /// (ordering dependences, possibly across clients or nodes).
  std::vector<WriteTicket> after;
  /// Runs on the calling thread once Status/WriteOutcome are final,
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
