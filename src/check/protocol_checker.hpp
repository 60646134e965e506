// Shared-memory protocol checker.
//
// The Damaris handoff (paper §III-B) gives every shared-buffer block a
// strict lifecycle driven from two sides of a thread boundary:
//
//      client thread                       dedicated core
//   allocate ──► written ──► published ──► consumed ──► released
//   (reserve)   (memcpy /    (event-queue   (event-queue  (deallocate)
//               dc_commit)    push)          pop)
//
// Any step out of order is a latent use-after-free or data race that
// plain tests rarely catch: a write after publish races the server's
// read, a release while published frees memory the server is about to
// touch, a double release corrupts the allocator free list, and a block
// never released leaks buffer space until the application stalls on
// allocation.
//
// ProtocolChecker is an ShmObserver that mirrors every live block in a
// shadow map and validates each transition, recording Violations
// (never crashing — the checker's job is to *report*). Attach it to a
// SharedBuffer and the EventQueues that carry its write-notifications:
//
//   check::ProtocolChecker chk;
//   chk.observe(buffer);
//   chk.observe(queue);
//   ... run the workload ...
//   for (const auto& v : chk.finalize()) std::cerr << v.to_string();
//
// Thread-safe.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/thread_annotations.hpp"
#include "shm/event_queue.hpp"
#include "shm/observer.hpp"
#include "shm/shared_buffer.hpp"

namespace dmr::check {

/// Shadow lifecycle state of a live block.
enum class BlockState {
  kAllocated,  // reserved, payload not yet written
  kWritten,    // payload written by the owning client
  kPublished,  // write-notification pushed; server may read any time
  kConsumed,   // server popped the notification and owns the block
  kNotLive,    // not in the shadow map (released, or never allocated) —
               // only appears in Violation::state, never as a live state
};

std::string_view block_state_name(BlockState s);

enum class ViolationKind {
  kDoubleRelease,       // released a block that is not live
  kWriteAfterPublish,   // client wrote after handing the block over
  kConsumeBeforeNotify, // server consumed a block never published
  kPublishWithoutWrite, // published a block whose payload was never written
  kDoublePublish,       // same block published twice
  kReleaseWhilePublished, // freed while a notification is still in flight
  kOverlap,             // allocator handed out overlapping blocks
  kUnknownBlock,        // operation on a block the checker never saw
  kPushAfterClose,      // message pushed into a closed queue (dropped)
  kLeakedBlock,         // still live when finalize() ran
};

std::string_view violation_kind_name(ViolationKind k);

struct Violation {
  ViolationKind kind{};
  shm::Block block;            // the block involved (invalid for queue-only)
  int client_id = -1;          // owning client, when known
  std::int64_t iteration = -1; // iteration of the in-flight message, if any
  BlockState state{};          // shadow state when the violation occurred
  std::string detail;

  /// e.g. "double-release: block[offset=128 size=64 client=2 it=7] ..."
  std::string to_string() const;
};

class ProtocolChecker : public shm::ShmObserver {
 public:
  ProtocolChecker() = default;
  /// Detaches from everything it still observes.
  ~ProtocolChecker() override;

  ProtocolChecker(const ProtocolChecker&) = delete;
  ProtocolChecker& operator=(const ProtocolChecker&) = delete;

  /// Starts observing `buf` / `q`. The checker detaches itself on
  /// destruction; the observed objects must still be alive then (or be
  /// destroyed first after a manual set_observer(nullptr)).
  void observe(shm::SharedBuffer& buf);
  void observe(shm::EventQueue& q);

  // --- ShmObserver ---
  void on_allocate(const shm::Block& block) override;
  void on_write(const shm::Block& block) override;
  void on_deallocate(const shm::Block& block) override;
  void on_push(const shm::Message& msg, bool accepted) override;
  void on_pop(const shm::Message& msg) override;

  /// Flags every still-live block as kLeakedBlock and returns the full
  /// violation list. Idempotent (repeated calls do not re-report the
  /// same leaks).
  std::vector<Violation> finalize();

  /// Violations recorded so far (without running the leak check).
  std::vector<Violation> violations() const;
  std::size_t violation_count() const;

  /// Blocks currently alive in the shadow map.
  std::size_t live_blocks() const;

  /// Human-readable multi-line summary ("protocol clean" when empty).
  std::string report() const;

 private:
  struct Shadow {
    shm::Block block;
    BlockState state = BlockState::kAllocated;
    std::int64_t iteration = -1;  // set at publish time
  };

  void record(ViolationKind kind, const shm::Block& block, BlockState state,
              std::int64_t iteration, std::string detail) DMR_REQUIRES(mutex_);
  /// Finds the shadow entry covering `block`, or live_.end().
  std::map<Bytes, Shadow>::iterator find_shadow(const shm::Block& block)
      DMR_REQUIRES(mutex_);

  mutable Mutex mutex_;
  std::map<Bytes, Shadow> live_ DMR_GUARDED_BY(mutex_);  // keyed by offset
  std::vector<Violation> violations_ DMR_GUARDED_BY(mutex_);
  bool leaks_reported_ DMR_GUARDED_BY(mutex_) = false;

  std::vector<shm::SharedBuffer*> buffers_ DMR_GUARDED_BY(mutex_);
  std::vector<shm::EventQueue*> queues_ DMR_GUARDED_BY(mutex_);
};

}  // namespace dmr::check
