#include "des/resources.hpp"

#include <algorithm>
#include <cassert>

namespace dmr::des {

ServiceQueue::ServiceQueue(Engine& eng, double rate, Time per_op_overhead)
    : eng_(&eng), rate_(rate), overhead_(per_op_overhead) {
  assert(rate > 0.0);
}

Time ServiceQueue::commit(Bytes bytes, double multiplier, Time extra) {
  return commit_from(eng_->now(), bytes, multiplier, extra);
}

Time ServiceQueue::commit_from(Time earliest_start, Bytes bytes,
                               double multiplier, Time extra) {
  const Time start = std::max(earliest_start, free_at_);
  const Time duration = (overhead_ + extra +
                         static_cast<double>(bytes) / rate_) *
                        multiplier * fault_multiplier();
  free_at_ = start + duration;
  total_busy_ += duration;
  ++ops_;
  trace_commit(earliest_start, start, duration, bytes);
  return free_at_;
}

Time ServiceQueue::commit_duration(Time duration) {
  const Time start = std::max(eng_->now(), free_at_);
  free_at_ = start + duration;
  total_busy_ += duration;
  ++ops_;
  trace_commit(eng_->now(), start, duration, 0);
  return free_at_;
}

void ServiceQueue::trace_commit(Time earliest_start, Time start, Time duration,
                                Bytes bytes) const {
  if (trace_label_ == nullptr) return;
  trace::Tracer* tr = trace::current();
  if (tr == nullptr || !tr->enabled(trace::Category::kDes)) return;
  // The queueing delay the paper's jitter analysis cares about: how long
  // this op sat behind earlier commitments before being serviced.
  if (start > earliest_start) {
    tr->record_span(trace_entity_, trace::Category::kDes, "wait",
                    earliest_start, start - earliest_start, bytes);
  }
  tr->record_span(trace_entity_, trace::Category::kDes, trace_label_, start,
                  duration, bytes);
}

SharedLink::SharedLink(Engine& eng, double rate, Time latency)
    : eng_(&eng), rate_(rate), latency_(latency) {
  assert(rate > 0.0);
}

SharedLink::~SharedLink() {
  if (tick_scheduled_) eng_->cancel(pending_tick_);
}

Time SharedLink::total_busy() const {
  Time busy = busy_accum_;
  if (!flows_.empty()) busy += eng_->now() - last_update_;
  return busy;
}

void SharedLink::start_flow(Bytes bytes, std::coroutine_handle<> h) {
  advance();
  double work = static_cast<double>(bytes);
  if (fault_ != nullptr) {
    work *= fault_->factor_at(fault_site_, eng_->now());
  }
  flows_.push(Flow{order_bits(virtual_work_ + work), next_flow_seq_++, bytes,
                   eng_->now(), h});
  reschedule();
}

void SharedLink::advance() {
  const Time now = eng_->now();
  if (!flows_.empty() && now > last_update_) {
    virtual_work_ +=
        rate_ / static_cast<double>(flows_.size()) * (now - last_update_);
    busy_accum_ += now - last_update_;
  }
  last_update_ = now;
}

void SharedLink::reschedule() {
  if (tick_scheduled_) {
    eng_->cancel(pending_tick_);
    tick_scheduled_ = false;
  }
  if (flows_.empty()) return;
  const double deficit = std::max(0.0, flows_.top().target_w() - virtual_work_);
  // Never schedule a tick below kMinTick: floating-point residue in the
  // virtual-work bookkeeping can leave a deficit whose service time is
  // smaller than the representable time increment at the current clock,
  // which would freeze simulated time in an endless same-instant tick
  // loop. One nanosecond is far below anything the models resolve.
  constexpr Time kMinTick = 1e-9;
  const Time dt = std::max(
      deficit * static_cast<double>(flows_.size()) / rate_, kMinTick);
  pending_tick_ =
      eng_->schedule_callback(eng_->now() + dt, [this] { on_tick(); });
  tick_scheduled_ = true;
}

void SharedLink::on_tick() {
  tick_scheduled_ = false;
  advance();
  // Complete every flow within one nanosecond of its virtual finish (the
  // time-based epsilon absorbs floating-point residue; see reschedule).
  constexpr Time kTimeEps = 1e-9;
  while (!flows_.empty()) {
    const double deficit = flows_.top().target_w() - virtual_work_;
    const Time remaining =
        deficit * static_cast<double>(flows_.size()) / rate_;
    if (remaining > kTimeEps) break;
    const Flow& f = flows_.top();
    bytes_delivered_ += f.total;
    if (trace_label_ != nullptr) {
      if (trace::Tracer* tr = trace::current();
          tr != nullptr && tr->enabled(trace::Category::kDes)) {
        tr->record_span(trace_entity_, trace::Category::kDes, trace_label_,
                        f.started, eng_->now() - f.started, f.total);
      }
    }
    eng_->schedule_resume(f.handle, eng_->now() + latency_);
    flows_.pop();
  }
  reschedule();
}

}  // namespace dmr::des
