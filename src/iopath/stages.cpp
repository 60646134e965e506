#include "iopath/stages.hpp"

#include "sched/adaptive.hpp"
#include "sched/slot_scheduler.hpp"

namespace dmr::iopath {

des::Task<void> ShmIngestStage::run(WriteRequest& req) {
  const Bytes traffic =
      factor_ == 1.0 ? req.bytes
                     : static_cast<Bytes>(static_cast<double>(req.bytes) *
                                          factor_);
  co_await req.node->shm_bus().transfer(traffic);
  const SimTime jitter = req.node->noise().copy_jitter();
  if (jitter > 0) co_await eng_->delay(jitter);
}

des::Task<void> RemoteTransportStage::run(WriteRequest& req) {
  co_await req.node->nic().transfer(req.bytes);
  co_await machine_->fabric().transfer(req.bytes);
  co_await req.staging->nic().transfer(req.bytes);
}

des::Task<void> TransformStage::run(WriteRequest& req) {
  if (model_.active()) {
    co_await eng_->delay(model_.cpu_seconds(req.bytes));
    req.bytes = model_.stored_bytes(req.bytes);
  }
}

des::Task<void> ScheduleStage::run(WriteRequest& req) {
  switch (mode_) {
    case Scheduling::kNone:
      break;
    case Scheduling::kSlots: {
      const sched::SlotScheduler scheduler(interval_, num_writers_,
                                           req.source);
      co_await eng_->delay(scheduler.slot_start());
      break;
    }
    case Scheduling::kAdaptive:
      // Uniform static slots until the controller's first retune.
      co_await eng_->delay(controller_->offset(req.source));
      break;
    case Scheduling::kTokens:
      co_await tokens_->acquire();
      break;
  }
}

void ScheduleStage::complete(WriteRequest& req) {
  (void)req;
  if (mode_ == Scheduling::kTokens) tokens_->release();
}

des::Task<void> StorageStage::run(WriteRequest& req) {
  const fs::Placement place{req.place_first_server, req.place_server_span};
  if (req.staging_tier != nullptr) {
    // Staging tier: the burst buffer absorbs the payload at its own
    // bandwidth and the client is done; the real create/write/close
    // drains in the background (bytes conserved, server contention and
    // jitter hidden from this writer).
    co_await req.staging_tier->serve(req.bytes);
    fs_->drain_async(req.core, stripe_count_, req.bytes, max_request_,
                     place);
    req.status = Status::ok();
    co_return;
  }
  fs::FileHandle h =
      co_await fs_->create(req.core, stripe_count_, /*shared=*/false, place);
  fs::WriteOptions opts;
  opts.max_request = max_request_;
  Status st = co_await fs_->try_write(req.core, h, 0, req.bytes, opts);
  if (!st.is_ok() && retry_.enabled()) {
    // Backoff delays are simulated time; the jitter stream is keyed by
    // (stage seed, source, phase) so a rerun replays identical delays.
    fault::Backoff backoff(
        retry_, fault::mix_key(seed_, fault::mix_key(
                                          static_cast<std::uint64_t>(req.source),
                                          static_cast<std::uint64_t>(req.phase))));
    const SimTime t0 = fs_->engine().now();
    for (int attempt = 2; attempt <= retry_.max_attempts && !st.is_ok();
         ++attempt) {
      const double delay = backoff.next();
      if (retry_.deadline > 0.0 &&
          fs_->engine().now() - t0 + delay > retry_.deadline) {
        break;
      }
      ++req.retries;
      co_await fs_->engine().delay(delay);
      st = co_await fs_->try_write(req.core, h, 0, req.bytes, opts);
    }
  }
  req.status = st;
  co_await fs_->close(req.core, h);
}

des::Task<void> CollectiveWriteStage::run(WriteRequest& req) {
  co_await writer_->collective_write(req.source, req.bytes);
}

}  // namespace dmr::iopath
