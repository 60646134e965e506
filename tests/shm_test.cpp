#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/protocol_checker.hpp"
#include "common/rng.hpp"
#include "shm/event_queue.hpp"
#include "shm/shared_buffer.hpp"

namespace dmr::shm {
namespace {

/// Polls `done` until it holds or `seconds` pass; true when it held. A
/// lost wake-up then fails the test instead of hanging it.
bool eventually(const std::function<bool()>& done, double seconds = 5.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  return true;
}

// ---------------------------------------------------------- first fit

TEST(FirstFit, AllocateAndUse) {
  SharedBuffer buf(1024, AllocPolicy::kMutexFirstFit, 4);
  auto r = buf.allocate(128, 0);
  ASSERT_TRUE(r.is_ok());
  Block b = r.value();
  EXPECT_EQ(b.size, 128u);
  std::memset(buf.data(b), 0xAB, b.size);
  EXPECT_EQ(buf.used(), 128u);
  buf.deallocate(b);
  EXPECT_EQ(buf.used(), 0u);
}

TEST(FirstFit, ZeroSizeRejected) {
  SharedBuffer buf(1024, AllocPolicy::kMutexFirstFit, 1);
  EXPECT_FALSE(buf.allocate(0, 0).is_ok());
}

TEST(FirstFit, BadClientRejected) {
  SharedBuffer buf(1024, AllocPolicy::kMutexFirstFit, 2);
  EXPECT_FALSE(buf.allocate(16, -1).is_ok());
  EXPECT_FALSE(buf.allocate(16, 2).is_ok());
}

TEST(FirstFit, ExhaustionFails) {
  SharedBuffer buf(256, AllocPolicy::kMutexFirstFit, 1);
  auto a = buf.allocate(200, 0);
  ASSERT_TRUE(a.is_ok());
  auto b = buf.allocate(100, 0);
  EXPECT_FALSE(b.is_ok());
  EXPECT_EQ(b.status().code(), ErrorCode::kOutOfMemory);
  EXPECT_EQ(buf.failed_allocations(), 1u);
}

TEST(FirstFit, FreeMakesSpaceAgain) {
  SharedBuffer buf(256, AllocPolicy::kMutexFirstFit, 1);
  auto a = buf.allocate(200, 0);
  ASSERT_TRUE(a.is_ok());
  buf.deallocate(a.value());
  EXPECT_TRUE(buf.allocate(256, 0).is_ok());  // full coalesced capacity
}

TEST(FirstFit, CoalescingBothSides) {
  SharedBuffer buf(300, AllocPolicy::kMutexFirstFit, 1);
  auto a = buf.allocate(100, 0);
  auto b = buf.allocate(100, 0);
  auto c = buf.allocate(100, 0);
  ASSERT_TRUE(a.is_ok() && b.is_ok() && c.is_ok());
  buf.deallocate(a.value());
  buf.deallocate(c.value());
  buf.deallocate(b.value());  // middle last: must merge into one region
  EXPECT_TRUE(buf.allocate(300, 0).is_ok());
}

TEST(FirstFit, BatchFreeOutOfOffsetOrderCoalesces) {
  SharedBuffer buf(500, AllocPolicy::kMutexFirstFit, 2);
  std::vector<Block> blocks;
  for (int i = 0; i < 5; ++i) {
    auto r = buf.allocate(100, i % 2);
    ASSERT_TRUE(r.is_ok());
    blocks.push_back(r.value());
  }
  // The dedicated core's view: an iteration's blocks in (variable,
  // source) order, not in offset order.
  buf.deallocate_batch({blocks[3], blocks[0], blocks[4], blocks[2], blocks[1]});
  EXPECT_TRUE(buf.check_integrity().is_ok())
      << buf.check_integrity().to_string();
  EXPECT_EQ(buf.used(), 0u);
  EXPECT_TRUE(buf.allocate(500, 0).is_ok());  // one coalesced free range
}

TEST(FirstFit, BatchListingABlockTwiceIsADoubleRelease) {
  SharedBuffer buf(1024, AllocPolicy::kMutexFirstFit, 1);
  check::ProtocolChecker checker;
  checker.observe(buf);
  auto a = buf.allocate(128, 0);
  auto b = buf.allocate(128, 0);
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  buf.deallocate_batch({a.value(), b.value(), a.value()});
  int double_releases = 0;
  for (const check::Violation& v : checker.violations()) {
    if (v.kind == check::ViolationKind::kDoubleRelease) ++double_releases;
  }
  EXPECT_EQ(double_releases, 1);
}

TEST(FirstFit, BlocksDoNotOverlap) {
  SharedBuffer buf(4096, AllocPolicy::kMutexFirstFit, 1);
  Rng rng(3);
  std::vector<Block> live;
  for (int step = 0; step < 2000; ++step) {
    if (live.empty() || rng.chance(0.6)) {
      auto r = buf.allocate(1 + rng.next_below(128), 0);
      if (r.is_ok()) live.push_back(r.value());
    } else {
      std::size_t i = rng.next_below(live.size());
      buf.deallocate(live[i]);
      live.erase(live.begin() + i);
    }
    for (std::size_t i = 0; i < live.size(); ++i) {
      for (std::size_t j = i + 1; j < live.size(); ++j) {
        const Block& x = live[i];
        const Block& y = live[j];
        EXPECT_TRUE(x.offset + x.size <= y.offset ||
                    y.offset + y.size <= x.offset)
            << "overlap at step " << step;
      }
    }
  }
}

TEST(FirstFit, PeakTracksHighWater) {
  SharedBuffer buf(1024, AllocPolicy::kMutexFirstFit, 1);
  auto a = buf.allocate(400, 0);
  auto b = buf.allocate(300, 0);
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  buf.deallocate(a.value());
  buf.deallocate(b.value());
  EXPECT_EQ(buf.peak_used(), 700u);
  EXPECT_EQ(buf.used(), 0u);
}

TEST(FirstFit, ConcurrentClientsNoCorruption) {
  SharedBuffer buf(1 * MiB, AllocPolicy::kMutexFirstFit, 8);
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < 8; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(100 + c);
      for (int i = 0; i < 500; ++i) {
        auto r = buf.allocate(64 + rng.next_below(512), c);
        if (!r.is_ok()) continue;
        Block b = r.value();
        std::memset(buf.data(b), c, b.size);
        // Verify our bytes survived concurrent activity.
        for (Bytes k = 0; k < b.size; ++k) {
          if (buf.data(b)[k] != static_cast<std::byte>(c)) {
            errors.fetch_add(1);
            break;
          }
        }
        buf.deallocate(b);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(buf.used(), 0u);
}

// The double release of a block that sits alone, or that coalesced
// with the free region before it, after it, or both, corrupts the free
// list or the accounting, and check_integrity() says so.
TEST(FirstFit, ReleasingABlockTwiceFailsIntegrityWhateverItCoalescedWith) {
  for (const bool batch : {false, true}) {
    for (const bool prev_free : {false, true}) {
      for (const bool next_free : {false, true}) {
        SharedBuffer buf(400, AllocPolicy::kMutexFirstFit, 1);
        std::vector<Block> b;
        for (int i = 0; i < 4; ++i) {
          auto r = buf.allocate(100, 0);
          ASSERT_TRUE(r.is_ok());
          b.push_back(r.value());
        }
        if (prev_free) buf.deallocate(b[0]);
        if (next_free) buf.deallocate(b[2]);
        buf.deallocate(b[1]);
        ASSERT_TRUE(buf.check_integrity().is_ok())
            << buf.check_integrity().to_string();
        if (batch) {
          buf.deallocate_batch({b[1]});
        } else {
          buf.deallocate(b[1]);
        }
        EXPECT_FALSE(buf.check_integrity().is_ok())
            << "batch " << batch << ", previous free " << prev_free
            << ", next free " << next_free;
      }
    }
  }
}

/// First-fit as the reference for the differential test: free regions
/// [start, end) in a sorted vector; an allocation takes the front of
/// the lowest region that fits, a release merges with the regions it
/// touches.
class ReferenceFirstFit {
 public:
  explicit ReferenceFirstFit(Bytes capacity) { free_.push_back({0, capacity}); }

  std::optional<Bytes> allocate(Bytes size) {
    for (auto it = free_.begin(); it != free_.end(); ++it) {
      if (it->second - it->first < size) continue;
      const Bytes offset = it->first;
      it->first += size;
      if (it->first == it->second) free_.erase(it);
      used_ += size;
      peak_ = std::max(peak_, used_);
      return offset;
    }
    ++failed_;
    return std::nullopt;
  }

  void deallocate(const Block& b) {
    auto it = std::lower_bound(free_.begin(), free_.end(), b.offset,
                               [](const std::pair<Bytes, Bytes>& r,
                                  Bytes at) { return r.first < at; });
    it = free_.insert(it, {b.offset, b.offset + b.size});
    if (std::next(it) != free_.end() && std::next(it)->first == it->second) {
      it->second = std::next(it)->second;
      free_.erase(std::next(it));
    }
    if (it != free_.begin() && std::prev(it)->second == it->first) {
      std::prev(it)->second = it->second;
      free_.erase(it);
    }
    used_ -= b.size;
  }

  Bytes used() const { return used_; }
  Bytes peak() const { return peak_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::vector<std::pair<Bytes, Bytes>> free_;
  Bytes used_ = 0;
  Bytes peak_ = 0;
  std::uint64_t failed_ = 0;
};

// Seeded sequences of allocations (tiny to larger than the buffer, so
// it runs full), single releases and out-of-order batch releases, from
// 1 to 16 clients: the allocator places every block where the
// reference does and fails where it fails, with the same accounting,
// and its free list is sound after every step.
TEST(FirstFit, PlacementMatchesAReferenceFirstFit) {
  constexpr Bytes kCapacity = 64 * KiB;
  for (const int clients : {1, 2, 3, 7, 16}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SharedBuffer buf(kCapacity, AllocPolicy::kMutexFirstFit, clients);
      ReferenceFirstFit ref(kCapacity);
      Rng rng(seed * 1000 + static_cast<std::uint64_t>(clients));
      std::vector<Block> live;
      for (int step = 0; step < 1500; ++step) {
        const std::string where = "clients " + std::to_string(clients) +
                                  ", seed " + std::to_string(seed) +
                                  ", step " + std::to_string(step);
        const std::uint64_t action = rng.next_below(10);
        if (live.empty() || action < 6) {
          Bytes size = 0;
          switch (rng.next_below(5)) {
            case 0: size = 1 + rng.next_below(16); break;
            case 1: size = 1 + rng.next_below(512); break;
            case 2: size = 4 * KiB; break;
            case 3: size = 1 + rng.next_below(kCapacity / 4); break;
            default:
              size = rng.chance(0.1) ? kCapacity + 1
                                     : 1 + rng.next_below(2 * KiB);
          }
          const int client = static_cast<int>(rng.next_below(clients));
          const Result<Block> got = buf.allocate(size, client);
          const std::optional<Bytes> want = ref.allocate(size);
          ASSERT_EQ(got.is_ok(), want.has_value()) << where;
          if (got.is_ok()) {
            ASSERT_EQ(got.value().offset, *want) << where;
            ASSERT_EQ(got.value().size, size) << where;
            ASSERT_EQ(got.value().client_id, client) << where;
            live.push_back(got.value());
          } else {
            ASSERT_EQ(got.status().code(), ErrorCode::kOutOfMemory) << where;
          }
        } else if (action < 8) {
          const std::size_t i = rng.next_below(live.size());
          buf.deallocate(live[i]);
          ref.deallocate(live[i]);
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        } else {
          // A random subset in a random order, as the dedicated core
          // lists an iteration's blocks by (variable, source).
          std::vector<Block> batch;
          std::vector<Block> kept;
          for (const Block& b : live) {
            (rng.chance(0.5) ? batch : kept).push_back(b);
          }
          for (std::size_t i = batch.size(); i > 1; --i) {
            std::swap(batch[i - 1], batch[rng.next_below(i)]);
          }
          for (const Block& b : batch) ref.deallocate(b);
          buf.deallocate_batch(batch);
          live = std::move(kept);
        }
        ASSERT_EQ(buf.used(), ref.used()) << where;
        ASSERT_EQ(buf.peak_used(), ref.peak()) << where;
        ASSERT_EQ(buf.failed_allocations(), ref.failed()) << where;
        const Status integrity = buf.check_integrity();
        ASSERT_TRUE(integrity.is_ok()) << where << ": "
                                       << integrity.to_string();
      }
    }
  }
}

// --------------------------------------------------------- partitioned

TEST(Partitioned, EachClientGetsOwnRegion) {
  SharedBuffer buf(1000, AllocPolicy::kPartitioned, 4);
  auto a = buf.allocate(100, 0);
  auto b = buf.allocate(100, 1);
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  // Client 1's region starts at capacity/4 = 250.
  EXPECT_EQ(a.value().offset, 0u);
  EXPECT_EQ(b.value().offset, 250u);
}

TEST(Partitioned, PartitionExhaustion) {
  SharedBuffer buf(1000, AllocPolicy::kPartitioned, 4);
  auto a = buf.allocate(200, 0);
  ASSERT_TRUE(a.is_ok());
  // 250-byte partition has 50 left.
  EXPECT_FALSE(buf.allocate(100, 0).is_ok());
  // Other clients unaffected.
  EXPECT_TRUE(buf.allocate(250, 1).is_ok());
}

TEST(Partitioned, RewindsWhenDrained) {
  SharedBuffer buf(1000, AllocPolicy::kPartitioned, 4);
  for (int round = 0; round < 10; ++round) {
    auto r = buf.allocate(200, 2);
    ASSERT_TRUE(r.is_ok()) << "round " << round;
    buf.deallocate(r.value());
  }
  EXPECT_EQ(buf.failed_allocations(), 0u);
}

TEST(Partitioned, NoRewindWhileLive) {
  SharedBuffer buf(1000, AllocPolicy::kPartitioned, 4);
  auto a = buf.allocate(150, 0);
  ASSERT_TRUE(a.is_ok());
  auto b = buf.allocate(100, 0);
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(b.value().offset, 150u);  // bump, not rewind
  buf.deallocate(a.value());
  // Still one live block: next allocation must not reuse [0,150).
  auto c = buf.allocate(1, 0);
  EXPECT_FALSE(c.is_ok());  // 250-partition: 150+100 consumed, no rewind
}

TEST(Partitioned, ProducerConsumerPipeline) {
  // One client producing, one "server" thread consuming: the paper's
  // per-iteration pattern. No allocation may fail once steady state
  // holds (buffer sized for 2 iterations in flight).
  SharedBuffer buf(4096, AllocPolicy::kPartitioned, 1);
  EventQueue queue;
  std::atomic<int> consumed{0};
  std::thread server([&] {
    while (auto m = queue.pop()) {
      buf.deallocate(m->block);
      consumed.fetch_add(1);
    }
  });
  int failures = 0;
  for (int i = 0; i < 2000; ++i) {
    auto r = buf.allocate(512, 0);
    if (!r.is_ok()) {
      ++failures;
      // Buffer full: wait for the server to drain (Damaris clients would
      // block or drop depending on policy).
      if (!eventually([&] { return buf.used() == 0; })) {
        ADD_FAILURE() << "the server never drained the buffer";
        break;
      }
      continue;
    }
    Message m;
    m.type = MessageType::kWriteNotification;
    m.block = r.value();
    ASSERT_TRUE(queue.push(m));
  }
  queue.close();  // wakes the server even after a lost wake-up
  server.join();
  EXPECT_EQ(consumed.load() + failures, 2000);
  EXPECT_EQ(buf.used(), 0u);
}

// ------------------------------------------- allocator property sweep

struct AllocParam {
  AllocPolicy policy;
  int clients;
  Bytes capacity;
};

class AllocatorProperty : public ::testing::TestWithParam<AllocParam> {};

TEST_P(AllocatorProperty, UsedNeverExceedsCapacityAndFreesRestore) {
  const AllocParam p = GetParam();
  SharedBuffer buf(p.capacity, p.policy, p.clients);
  Rng rng(42);
  std::vector<Block> live;
  for (int step = 0; step < 3000; ++step) {
    if (live.empty() || rng.chance(0.55)) {
      const int client = static_cast<int>(rng.next_below(p.clients));
      auto r = buf.allocate(1 + rng.next_below(256), client);
      if (r.is_ok()) live.push_back(r.value());
    } else {
      const std::size_t i = rng.next_below(live.size());
      buf.deallocate(live[i]);
      live.erase(live.begin() + i);
    }
    EXPECT_LE(buf.used(), p.capacity);
    Bytes live_total = 0;
    for (const auto& b : live) live_total += b.size;
    EXPECT_EQ(buf.used(), live_total);
  }
  for (const auto& b : live) buf.deallocate(b);
  EXPECT_EQ(buf.used(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, AllocatorProperty,
    ::testing::Values(
        AllocParam{AllocPolicy::kMutexFirstFit, 1, 8 * KiB},
        AllocParam{AllocPolicy::kMutexFirstFit, 4, 16 * KiB},
        AllocParam{AllocPolicy::kMutexFirstFit, 16, 64 * KiB},
        AllocParam{AllocPolicy::kPartitioned, 1, 8 * KiB},
        AllocParam{AllocPolicy::kPartitioned, 4, 16 * KiB},
        AllocParam{AllocPolicy::kPartitioned, 16, 64 * KiB}));

// ----------------------------------------------------------- event queue

TEST(EventQueue, PushPopFifo) {
  EventQueue q;
  for (int i = 0; i < 5; ++i) {
    Message m;
    m.iteration = i;
    ASSERT_TRUE(q.push(m));
  }
  for (int i = 0; i < 5; ++i) {
    auto m = q.try_pop();
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->iteration, i);
  }
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(EventQueue, PopBlocksUntilPush) {
  EventQueue q;
  std::atomic<bool> got{false};
  std::thread consumer([&] {
    auto m = q.pop();
    if (m && m->iteration == 42) got.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  Message m;
  m.iteration = 42;
  ASSERT_TRUE(q.push(m));
  EXPECT_TRUE(eventually([&] { return got.load(); }))
      << "the push never woke the blocked consumer";
  q.close();  // wakes the consumer even after a lost wake-up
  consumer.join();
}

TEST(EventQueue, CloseDrainsThenEnds) {
  EventQueue q;
  Message m;
  m.iteration = 1;
  ASSERT_TRUE(q.push(m));
  q.close();
  EXPECT_TRUE(q.pop().has_value());   // drains queued message
  EXPECT_FALSE(q.pop().has_value());  // then reports closed
}

TEST(EventQueue, PushAfterCloseIsDropped) {
  EventQueue q;
  Message before;
  before.iteration = 1;
  EXPECT_TRUE(q.push(before));
  q.close();
  Message after;
  after.iteration = 2;
  EXPECT_FALSE(q.push(after));  // dropped, not queued
  EXPECT_EQ(q.dropped(), 1u);
  EXPECT_EQ(q.pushed(), 1u);  // only the pre-close message counts
  auto m = q.pop();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->iteration, 1);
  EXPECT_FALSE(q.pop().has_value());  // the dropped message never appears
}

TEST(EventQueue, CloseWakesAllBlockedPoppers) {
  // Shared with the poppers: close() is the wake under test, so a
  // popper it missed can only be detached, and it keeps these alive.
  struct State {
    EventQueue q;
    std::atomic<int> woke_empty{0};
  };
  const auto state = std::make_shared<State>();
  constexpr int kPoppers = 4;
  std::vector<std::thread> poppers;
  for (int i = 0; i < kPoppers; ++i) {
    poppers.emplace_back([state] {
      if (!state->q.pop().has_value()) state->woke_empty.fetch_add(1);
    });
  }
  // Give every popper a chance to park, then close.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  state->q.close();
  const bool all_woke =
      eventually([&] { return state->woke_empty.load() == kPoppers; });
  EXPECT_TRUE(all_woke) << state->woke_empty.load() << " of " << kPoppers
                        << " poppers woke";
  for (auto& t : poppers) {
    if (all_woke) {
      t.join();
    } else {
      t.detach();
    }
  }
}

TEST(EventQueue, DrainAfterClosePreservesFifoOrder) {
  EventQueue q;
  for (int i = 0; i < 10; ++i) {
    Message m;
    m.iteration = i;
    ASSERT_TRUE(q.push(m));
  }
  q.close();
  EXPECT_TRUE(q.closed());
  for (int i = 0; i < 10; ++i) {
    auto m = q.pop();
    ASSERT_TRUE(m.has_value()) << "message " << i << " lost by close()";
    EXPECT_EQ(m->iteration, i);
  }
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(EventQueue, PopAllDrainsEverythingPushedBeforeCloseInFifoOrder) {
  EventQueue q;
  for (int i = 0; i < 10; ++i) {
    Message m;
    m.iteration = i;
    ASSERT_TRUE(q.push(m));
  }
  q.close();
  Message late;
  late.iteration = 99;
  EXPECT_FALSE(q.push(late));
  std::vector<Message> batch;
  ASSERT_TRUE(q.pop_all(batch));
  ASSERT_EQ(batch.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(batch[i].iteration, i);
  EXPECT_FALSE(q.pop_all(batch));
  EXPECT_TRUE(batch.empty());
}

TEST(EventQueue, PopAllKeepsEachProducersOrder) {
  EventQueue q;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  std::vector<std::int64_t> next(kProducers, 0);
  bool in_order = true;
  int received = 0;
  std::thread consumer([&] {
    std::vector<Message> batch;
    while (q.pop_all(batch)) {
      for (const Message& m : batch) {
        in_order = in_order && m.iteration == next[m.client_id]++;
        ++received;
      }
    }
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        Message m;
        m.client_id = p;
        m.iteration = i;
        ASSERT_TRUE(q.push(m));
      }
    });
  }
  for (auto& t : producers) t.join();
  q.close();
  consumer.join();
  EXPECT_TRUE(in_order);
  EXPECT_EQ(received, kProducers * kPerProducer);
}

TEST(EventQueue, CloseIsIdempotent) {
  EventQueue q;
  Message m;
  ASSERT_TRUE(q.push(m));
  q.close();
  q.close();  // second close must not disturb the drain
  EXPECT_TRUE(q.pop().has_value());
  EXPECT_FALSE(q.pop().has_value());
}

/// Pushes messages with iterations [from, to).
void push_range(EventQueue& q, int from, int to) {
  for (int i = from; i < to; ++i) {
    Message m;
    m.iteration = i;
    ASSERT_TRUE(q.push(m));
  }
}

std::vector<std::int64_t> iterations_of(const std::vector<Message>& batch) {
  std::vector<std::int64_t> out;
  for (const Message& m : batch) out.push_back(m.iteration);
  return out;
}

TEST(EventQueue, PopAllAfterPartialPopsSkipsTheConsumedPrefix) {
  EventQueue q;
  push_range(q, 0, 10);
  ASSERT_EQ(q.try_pop()->iteration, 0);
  ASSERT_EQ(q.try_pop()->iteration, 1);
  ASSERT_EQ(q.pop()->iteration, 2);
  std::vector<Message> batch;
  ASSERT_TRUE(q.pop_all(batch));
  EXPECT_EQ(iterations_of(batch),
            (std::vector<std::int64_t>{3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(q.size(), 0u);
  // Again on the storage the batch handed back, then once more after a
  // pop that drains the queue.
  push_range(q, 10, 13);
  ASSERT_EQ(q.try_pop()->iteration, 10);
  ASSERT_TRUE(q.pop_all(batch));
  EXPECT_EQ(iterations_of(batch), (std::vector<std::int64_t>{11, 12}));
  push_range(q, 13, 14);
  ASSERT_EQ(q.pop()->iteration, 13);
  push_range(q, 14, 16);
  ASSERT_TRUE(q.pop_all(batch));
  EXPECT_EQ(iterations_of(batch), (std::vector<std::int64_t>{14, 15}));
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(EventQueue, SizeCountsOnlyUnpoppedMessages) {
  EventQueue q;
  push_range(q, 0, 5);
  EXPECT_EQ(q.size(), 5u);
  ASSERT_TRUE(q.try_pop().has_value());
  ASSERT_TRUE(q.pop().has_value());
  EXPECT_EQ(q.size(), 3u);
  push_range(q, 5, 7);
  EXPECT_EQ(q.size(), 5u);
  for (int i = 2; i < 7; ++i) ASSERT_EQ(q.try_pop()->iteration, i);
  EXPECT_EQ(q.size(), 0u);
  push_range(q, 7, 8);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pushed(), 8u);
}

TEST(EventQueue, CloseOnAPartlyPoppedQueueDrainsTheRest) {
  EventQueue q;
  push_range(q, 0, 6);
  ASSERT_EQ(q.try_pop()->iteration, 0);
  ASSERT_EQ(q.pop()->iteration, 1);
  q.close();
  Message late;
  late.iteration = 99;
  EXPECT_FALSE(q.push(late));
  EXPECT_EQ(q.size(), 4u);
  ASSERT_EQ(q.pop()->iteration, 2);
  std::vector<Message> batch;
  ASSERT_TRUE(q.pop_all(batch));
  EXPECT_EQ(iterations_of(batch), (std::vector<std::int64_t>{3, 4, 5}));
  EXPECT_FALSE(q.pop_all(batch));
  EXPECT_TRUE(batch.empty());
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_FALSE(q.try_pop().has_value());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.pushed(), 6u);
  EXPECT_EQ(q.dropped(), 1u);
}

// A consumer that reuses one batch vector trades storage with the
// queue: once both have grown to the batch size, every pop_all hands
// back one of the same two buffers, so pushes allocate nothing.
TEST(EventQueue, PopAllRecyclesTwoBuffersOnceWarm) {
  EventQueue q;
  std::vector<Message> batch;
  std::vector<const Message*> seen;
  for (int round = 0; round < 8; ++round) {
    push_range(q, 100 * round, 100 * round + 64);
    ASSERT_TRUE(q.pop_all(batch));
    ASSERT_EQ(batch.size(), 64u);
    EXPECT_EQ(batch.front().iteration, 100 * round);
    seen.push_back(batch.data());
  }
  for (std::size_t r = 2; r < seen.size(); ++r) {
    EXPECT_EQ(seen[r], seen[r - 2]) << "round " << r;
    EXPECT_NE(seen[r], seen[r - 1]) << "round " << r;
  }
}

TEST(EventQueue, MultiProducerCountsMatch) {
  EventQueue q;
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 1000;
  std::atomic<int> received{0};
  std::thread consumer([&] {
    while (q.pop()) received.fetch_add(1);
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        Message m;
        m.client_id = p;
        m.iteration = i;
        ASSERT_TRUE(q.push(m));
      }
    });
  }
  for (auto& t : producers) t.join();
  q.close();
  consumer.join();
  EXPECT_EQ(received.load(), kProducers * kPerProducer);
  EXPECT_EQ(q.pushed(), static_cast<std::uint64_t>(kProducers * kPerProducer));
}

// ------------------------------------- sleep handshake and spin lock

TEST(EventQueue, SleepingConsumerWakesForEverySinglePush) {
  // Each push lands on a consumer that announced it is going to sleep
  // and had ~100 us to park, and must wake it on its own: the next
  // push waits until this one was seen.
  EventQueue q;
  constexpr int kCycles = 300;
  std::atomic<int> received{0};
  std::atomic<bool> in_order{true};
  std::thread consumer([&] {
    std::vector<Message> batch;
    std::int64_t next = 0;
    while (q.pop_all(batch)) {
      for (const Message& m : batch) {
        if (m.iteration != next++) in_order.store(false);
      }
      received.fetch_add(static_cast<int>(batch.size()));
    }
  });
  int announced = 0;
  for (int i = 0; i < kCycles; ++i) {
    if (eventually([&] { return q.asleep(); })) ++announced;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    Message m;
    m.iteration = i;
    ASSERT_TRUE(q.push(m));
    if (!eventually([&] { return received.load() == i + 1; })) {
      ADD_FAILURE() << "push " << i << " never reached the sleeping consumer";
      break;
    }
  }
  q.close();  // wakes the consumer even after a lost wake-up
  consumer.join();
  EXPECT_EQ(announced, kCycles);
  EXPECT_EQ(received.load(), kCycles);
  EXPECT_TRUE(in_order.load());
}

TEST(EventQueue, CloseRacingProducersLosesAndDuplicatesNothing) {
  // Producers push until the queue drops their pushes while another
  // thread closes it, and two consumers (one pop_all, one pop) drain
  // it: every accepted message is taken exactly once, and each attempt
  // is either pushed or dropped.
  EventQueue q;
  constexpr int kProducers = 3;
  constexpr int kCap = 100000;  // attempts per producer, at most
  constexpr int kDroppedEach = 16;
  std::atomic<int> accepted{0};
  std::atomic<int> attempts{0};
  std::vector<int> taken_by_batch(kProducers * kCap, 0);
  std::vector<int> taken_by_pop(kProducers * kCap, 0);
  const auto id = [](const Message& m) {
    return m.client_id * kCap + static_cast<int>(m.iteration);
  };
  std::thread batch_consumer([&] {
    std::vector<Message> batch;
    while (q.pop_all(batch)) {
      for (const Message& m : batch) ++taken_by_batch[id(m)];
    }
  });
  std::thread pop_consumer([&] {
    while (auto m = q.pop()) ++taken_by_pop[id(*m)];
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      int dropped = 0;
      for (int i = 0; i < kCap && dropped < kDroppedEach; ++i) {
        // Past twice the closer's threshold, leave it the CPU.
        if (accepted.load() >= 6000) std::this_thread::yield();
        Message m;
        m.client_id = p;
        m.iteration = i;
        attempts.fetch_add(1);
        if (q.push(m)) {
          accepted.fetch_add(1);
        } else {
          ++dropped;
        }
      }
    });
  }
  std::thread closer([&] {
    while (accepted.load() < 3000) std::this_thread::yield();
    q.close();
  });
  for (auto& t : producers) t.join();
  closer.join();
  batch_consumer.join();
  pop_consumer.join();

  int taken = 0;
  for (std::size_t i = 0; i < taken_by_batch.size(); ++i) {
    const int n = taken_by_batch[i] + taken_by_pop[i];
    ASSERT_LE(n, 1) << "message " << i << " taken " << n << " times";
    taken += n;
  }
  EXPECT_EQ(taken, accepted.load());
  EXPECT_EQ(q.pushed(), static_cast<std::uint64_t>(accepted.load()));
  EXPECT_EQ(q.pushed() + q.dropped(),
            static_cast<std::uint64_t>(attempts.load()));
  EXPECT_EQ(q.dropped(), static_cast<std::uint64_t>(kProducers * kDroppedEach))
      << "a producer ran out of attempts before close()";
}

TEST(SpinMutex, ParkedWaitersKeepAPlainCounterExact) {
  // The holder sleeps 1 ms now and then, far past the spin, so the
  // other threads park on the lock word; the counter is a plain int.
  SpinMutex mutex;
  int counter = 0;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        SpinMutexLock lock(mutex);
        ++counter;
        if ((i + t) % 200 == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  SpinMutexLock lock(mutex);
  EXPECT_EQ(counter, kThreads * kPerThread);
}

}  // namespace
}  // namespace dmr::shm
