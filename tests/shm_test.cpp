#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "check/protocol_checker.hpp"
#include "common/rng.hpp"
#include "shm/event_queue.hpp"
#include "shm/shared_buffer.hpp"

namespace dmr::shm {
namespace {

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
      while (buf.used() != 0) std::this_thread::yield();
      continue;
    }
    Message m;
    m.type = MessageType::kWriteNotification;
    m.block = r.value();
    ASSERT_TRUE(queue.push(m));
  }
  queue.close();
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
  consumer.join();
  EXPECT_TRUE(got.load());
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
  EventQueue q;
  constexpr int kPoppers = 4;
  std::atomic<int> woke_empty{0};
  std::vector<std::thread> poppers;
  for (int i = 0; i < kPoppers; ++i) {
    poppers.emplace_back([&] {
      if (!q.pop().has_value()) woke_empty.fetch_add(1);
    });
  }
  // Give every popper a chance to block on the condvar, then close.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  for (auto& t : poppers) t.join();
  EXPECT_EQ(woke_empty.load(), kPoppers);
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
  std::deque<Message> batch;
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
    std::deque<Message> batch;
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

}  // namespace
}  // namespace dmr::shm
