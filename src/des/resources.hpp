// Contention-producing resource models.
//
// ServiceQueue — a FIFO server with a fixed service rate and a per-op
// overhead. Requests commit their service interval on arrival, so the
// k-th concurrent request finishes after all earlier ones: this is the
// "some processes finish fast, others wait" behaviour observed in
// parallel file systems (paper §I). Used for disks and metadata servers.
//
// SharedLink — an egalitarian processor-sharing link: n concurrent
// transfers each progress at rate/n. Used for NICs shared by the cores
// of one node and for fabric/ION links. This is the first-level
// contention Damaris removes by having a single writer per node.
//
// Implementation: the classic virtual-time formulation of egalitarian
// processor sharing. Virtual work W(t) advances at rate/n(t); a flow of
// B bytes joining at time t0 completes when W reaches W(t0) + B. Each
// join/completion is O(log n) (one heap operation), which keeps
// simulations with ~10^4 concurrent flows (9216 Kraken ranks all writing
// at once) tractable.
#pragma once

#include <coroutine>
#include <cstdint>
#include <queue>
#include <vector>

#include "common/units.hpp"
#include "des/engine.hpp"
#include "fault/fault.hpp"
#include "trace/tracer.hpp"

namespace dmr::des {

class ServiceQueue {
 public:
  /// `rate` in bytes/second; `per_op_overhead` in seconds.
  ServiceQueue(Engine& eng, double rate, Time per_op_overhead = 0.0);

  ServiceQueue(const ServiceQueue&) = delete;
  ServiceQueue& operator=(const ServiceQueue&) = delete;

  /// Awaitable that completes when `bytes` have been serviced, after all
  /// previously submitted requests. `multiplier` scales this request's
  /// service time (used to inject per-op slowdowns, e.g. interference).
  auto serve(Bytes bytes, double multiplier = 1.0) {
    const Time completion = commit(bytes, multiplier);
    return eng_->sleep_until(completion);
  }

  /// Commits a request and returns its completion time without
  /// suspending (for callers that overlap submission with other work and
  /// only later wait for completion). `extra` adds a fixed per-op cost on
  /// top of the configured overhead (e.g. a stream-switch penalty).
  Time commit(Bytes bytes, double multiplier = 1.0, Time extra = 0.0);

  /// Like commit(), but the op may start as early as `earliest_start`
  /// (<= now): used to model work that overlapped with the data still
  /// streaming in (e.g. a disk writing the first frames of a large
  /// request before the last frame arrives).
  Time commit_from(Time earliest_start, Bytes bytes, double multiplier = 1.0,
                   Time extra = 0.0);

  /// Occupies the server for a pure-time operation of length `duration`
  /// (e.g. a metadata create or a lock grant), FIFO like everything else.
  auto occupy(Time duration, double multiplier = 1.0) {
    const Time completion = commit_duration(duration * multiplier);
    return eng_->sleep_until(completion);
  }

  /// Non-suspending version of occupy().
  Time commit_duration(Time duration);

  /// Time at which the server becomes idle given current commitments.
  Time busy_until() const { return free_at_; }

  /// Total committed service time (integral of busyness).
  Time total_busy() const { return total_busy_; }

  std::uint64_t ops() const { return ops_; }

  double rate() const { return rate_; }
  void set_rate(double rate) { rate_ = rate; }

  /// Gives this resource a trace identity (Category::kDes). Committed
  /// service intervals are recorded as `label` spans on `entity`, plus a
  /// "wait" span when a request queues behind earlier commitments. Pure
  /// observation; a null label (the default) keeps the resource silent.
  /// `label` must have static storage duration.
  void set_trace(trace::EntityId entity, const char* label) {
    trace_entity_ = entity;
    trace_label_ = label;
  }

  /// Attaches a fault injector: inside a `site` window (e.g.
  /// fault::Site::kServerSlow), committed service times are multiplied
  /// by the rule's factor. Null detaches; pure slowdown, no reordering.
  void set_fault(const fault::FaultInjector* injector, fault::Site site) {
    fault_ = injector;
    fault_site_ = site;
  }

 private:
  void trace_commit(Time earliest_start, Time start, Time duration,
                    Bytes bytes) const;

  double fault_multiplier() const {
    return fault_ == nullptr ? 1.0 : fault_->factor_at(fault_site_,
                                                       eng_->now());
  }

  Engine* eng_;
  double rate_;
  Time overhead_;
  Time free_at_ = 0.0;
  Time total_busy_ = 0.0;
  std::uint64_t ops_ = 0;
  trace::EntityId trace_entity_{};
  const char* trace_label_ = nullptr;
  const fault::FaultInjector* fault_ = nullptr;
  fault::Site fault_site_ = fault::Site::kServerSlow;
};

class SharedLink {
 public:
  /// `rate` in bytes/second; `latency` added once per transfer.
  SharedLink(Engine& eng, double rate, Time latency = 0.0);
  ~SharedLink();

  SharedLink(const SharedLink&) = delete;
  SharedLink& operator=(const SharedLink&) = delete;

  class TransferAwaiter {
   public:
    TransferAwaiter(SharedLink* link, Bytes bytes)
        : link_(link), bytes_(bytes) {}
    bool await_ready() const { return bytes_ == 0; }
    void await_suspend(std::coroutine_handle<> h) {
      link_->start_flow(bytes_, h);
    }
    void await_resume() const {}

   private:
    SharedLink* link_;
    Bytes bytes_;
  };

  /// Awaitable that completes when `bytes` have traversed the link under
  /// fair sharing with all concurrent transfers.
  TransferAwaiter transfer(Bytes bytes) { return TransferAwaiter(this, bytes); }

  /// Number of in-flight transfers.
  std::size_t active_flows() const { return flows_.size(); }

  /// Total time the link spent with at least one active flow.
  Time total_busy() const;

  double rate() const { return rate_; }

  /// Total bytes fully delivered.
  std::uint64_t bytes_delivered() const { return bytes_delivered_; }

  /// Gives this link a trace identity (Category::kDes): each completed
  /// transfer is recorded as a `label` span covering its whole lifetime
  /// (join to completion, i.e. including the slowdown from sharing).
  /// Pure observation; `label` must have static storage duration.
  void set_trace(trace::EntityId entity, const char* label) {
    trace_entity_ = entity;
    trace_label_ = label;
  }

  /// Attaches a fault injector: inside a `site` window (e.g.
  /// fault::Site::kNetDegrade), a joining flow's service demand is
  /// inflated by the rule's factor — the link behaves as if `factor`
  /// times the bytes had to traverse it. Delivered-byte accounting is
  /// unaffected. Null detaches.
  void set_fault(const fault::FaultInjector* injector, fault::Site site) {
    fault_ = injector;
    fault_site_ = site;
  }

 private:
  struct Flow {
    std::uint64_t target;  // order_bits of the virtual work at completion
    std::uint64_t seq;
    Bytes total;  // original request size
    Time started;  // join time, for tracing
    std::coroutine_handle<> handle;

    double target_w() const { return from_order_bits(target); }
  };
  /// Earliest completion first, ties in join order: one integer compare
  /// on (target_w, seq), like the engine's (t, seq).
  struct FlowCompare {
    bool operator()(const Flow& a, const Flow& b) const {
      return order_key(a.target, a.seq) > order_key(b.target, b.seq);
    }
  };

  void start_flow(Bytes bytes, std::coroutine_handle<> h);
  /// Advances virtual work to the current time.
  void advance();
  /// (Re)schedules the next completion tick.
  void reschedule();
  void on_tick();

  Engine* eng_;
  double rate_;
  Time latency_;
  std::priority_queue<Flow, std::vector<Flow>, FlowCompare> flows_;
  double virtual_work_ = 0.0;  // W(t), bytes of service
  std::uint64_t next_flow_seq_ = 0;
  Time last_update_ = 0.0;
  Time busy_accum_ = 0.0;
  std::uint64_t bytes_delivered_ = 0;
  std::uint64_t pending_tick_ = 0;
  bool tick_scheduled_ = false;
  trace::EntityId trace_entity_{};
  const char* trace_label_ = nullptr;
  const fault::FaultInjector* fault_ = nullptr;
  fault::Site fault_site_ = fault::Site::kNetDegrade;

  friend class TransferAwaiter;
};

}  // namespace dmr::des
