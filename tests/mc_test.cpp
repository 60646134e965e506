// Tests for the concurrency-analysis subsystem (src/mc/): vector
// clocks, the happens-before race detector, the sleep-set DFS model
// checker, and — the part that keeps the verifiers honest — seeded
// mutations of the shm handoff protocol that each engine must catch.
//
// Suite names all start with "Mc" so `ctest -R '^Mc'` selects exactly
// this file.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "mc/model_checker.hpp"
#include "mc/race_detector.hpp"
#include "mc/scenario.hpp"
#include "mc/scheduler.hpp"
#include "mc/vector_clock.hpp"
#include "mc/virtual_thread.hpp"
#include "shm/event_queue.hpp"
#include "shm/shared_buffer.hpp"
#include "shm/test_hooks.hpp"

namespace dmr::mc {
namespace {

std::string joined(const std::vector<std::string>& v) {
  std::ostringstream os;
  for (const auto& s : v) os << s << "\n";
  return os.str();
}

// ------------------------------------------------------------ VectorClock

TEST(McVectorClock, TickAdvancesOwnComponent) {
  VectorClock c;
  EXPECT_EQ(c.of(0), 0u);
  const Epoch e = c.tick(0);
  EXPECT_EQ(e.tid, 0);
  EXPECT_EQ(e.time, 1u);
  EXPECT_EQ(c.of(0), 1u);
  EXPECT_EQ(c.of(7), 0u);  // untouched components read as zero
}

TEST(McVectorClock, JoinIsComponentwiseMax) {
  VectorClock a;
  VectorClock b;
  a.set(0, 3);
  a.set(1, 1);
  b.set(1, 5);
  a.join(b);
  EXPECT_EQ(a.of(0), 3u);
  EXPECT_EQ(a.of(1), 5u);
}

TEST(McVectorClock, ObservedMatchesHappensBefore) {
  VectorClock reader;
  reader.set(2, 4);
  EXPECT_TRUE(reader.observed(Epoch{2, 4}));
  EXPECT_TRUE(reader.observed(Epoch{2, 3}));
  EXPECT_FALSE(reader.observed(Epoch{2, 5}));
  EXPECT_FALSE(reader.observed(Epoch{3, 1}));
}

TEST(McVectorClock, LeqIsPointwise) {
  VectorClock a;
  VectorClock b;
  a.set(0, 1);
  b.set(0, 2);
  b.set(1, 1);
  EXPECT_TRUE(a.leq(b));
  EXPECT_FALSE(b.leq(a));
}

// ------------------------------------------------------------- Footprints

TEST(McFootprint, IndependenceRelation) {
  Footprint queue0;
  queue0.queue = 0;
  Footprint part0;
  part0.partition = 0;
  Footprint part1;
  part1.partition = 1;
  Footprint anypart;
  anypart.partition = Footprint::kAny;
  Footprint read_a;
  read_a.payload = 42;
  Footprint write_a;
  write_a.payload = 42;
  write_a.payload_write = true;

  EXPECT_TRUE(dependent(queue0, queue0));    // same queue
  EXPECT_FALSE(dependent(queue0, part0));    // disjoint resource classes
  EXPECT_FALSE(dependent(part0, part1));     // distinct partitions commute
  EXPECT_TRUE(dependent(part0, anypart));    // wildcard matches everything
  EXPECT_FALSE(dependent(read_a, read_a));   // read-read never conflicts
  EXPECT_TRUE(dependent(read_a, write_a));   // read-write does
  EXPECT_TRUE(dependent(write_a, write_a));  // write-write does
}

// ---------------------------------------------------------- Race detector

shm::Block block_at(Bytes offset, Bytes size, int client) {
  shm::Block b;
  b.offset = offset;
  b.size = size;
  b.client_id = client;
  return b;
}

TEST(McRace, UnsyncedConflictingAccessesAreFlagged) {
  HbRaceDetector det;
  det.register_thread(0, "writer");
  det.register_thread(1, "reader");

  det.set_current_thread(0);
  det.set_context("write", 0);
  det.on_write(block_at(0, 64, 0));

  det.set_current_thread(1);
  det.set_context("read", 1);
  det.on_read(block_at(0, 64, 0));

  ASSERT_EQ(det.race_count(), 1u);
  const RaceReport r = det.races()[0];
  EXPECT_EQ(std::string(r.first.op), "write");
  EXPECT_EQ(std::string(r.second.op), "read");
  EXPECT_NE(r.first.tid, r.second.tid);
  EXPECT_NE(det.report().find("unordered"), std::string::npos);
}

TEST(McRace, SyncOrderedAccessesAreClean) {
  HbRaceDetector det;
  det.register_thread(0, "writer");
  det.register_thread(1, "reader");
  int dummy = 0;
  const shm::SyncPoint q{shm::SyncPoint::Kind::kQueueMutex, &dummy, -1};

  det.set_current_thread(0);
  det.on_write(block_at(0, 64, 0));
  det.on_acquire(q);
  det.on_release(q);  // publish: writer's past flows into the mutex

  det.set_current_thread(1);
  det.on_acquire(q);  // reader inherits the writer's clock
  det.on_read(block_at(0, 64, 0));

  EXPECT_EQ(det.race_count(), 0u);
}

TEST(McRace, ReleaseAcquireOnPartitionCounterOrders) {
  HbRaceDetector det;
  det.register_thread(0, "consumer");
  det.register_thread(1, "producer");
  int part = 0;
  const shm::SyncPoint p{shm::SyncPoint::Kind::kPartition, &part, 1};

  det.set_current_thread(0);
  det.on_read(block_at(128, 64, 1));
  det.on_release(p);  // deallocate: fetch_sub(release) on `live`

  det.set_current_thread(1);
  det.on_acquire(p);  // allocate: load(acquire) on `live`
  det.on_write(block_at(128, 64, 1));  // reuse of the same bytes

  EXPECT_EQ(det.race_count(), 0u);
}

TEST(McRace, ReadReadOverlapIsNotARace) {
  HbRaceDetector det;
  det.set_current_thread(0);
  det.on_read(block_at(0, 64, 0));
  det.set_current_thread(1);
  det.on_read(block_at(32, 64, 1));
  EXPECT_EQ(det.race_count(), 0u);
}

TEST(McRace, DisjointRangesAreNotARace) {
  HbRaceDetector det;
  det.set_current_thread(0);
  det.on_write(block_at(0, 64, 0));
  det.set_current_thread(1);
  det.on_write(block_at(64, 64, 1));
  EXPECT_EQ(det.race_count(), 0u);
}

TEST(McRace, ForkJoinEdgesOrderParentAndChild) {
  HbRaceDetector det;
  det.register_thread(0, "parent");
  det.register_thread(1, "child");

  det.set_current_thread(0);
  det.on_write(block_at(0, 64, 0));
  det.thread_create(0, 1);

  det.set_current_thread(1);
  det.on_read(block_at(0, 64, 0));  // after create: ordered
  det.on_write(block_at(0, 64, 0));
  det.thread_join(0, 1);

  det.set_current_thread(0);
  det.on_read(block_at(0, 64, 0));  // after join: ordered
  EXPECT_EQ(det.race_count(), 0u);
}

// A double release corrupts the allocator into handing overlapping
// blocks to two clients; their payload writes then overlap with no
// synchronization between the owners. This is the unordered access
// pair the detector contributes for the double-release mutation (the
// FSM-level kDoubleRelease itself is the protocol checker's catch —
// every access in the *honest* protocol is chained through sync edges,
// so the race only materializes through the corruption's overlap).
TEST(McRace, OverlapFromDoubleReleaseCorruptionIsARace) {
  HbRaceDetector det;
  det.register_thread(0, "client-0");
  det.register_thread(1, "client-1");

  det.set_current_thread(0);
  det.set_context("write", 0);
  det.on_write(block_at(0, 64, 0));

  det.set_current_thread(1);
  det.set_context("write", 1);
  det.on_write(block_at(32, 64, 1));  // overlaps [32, 64)

  ASSERT_EQ(det.race_count(), 1u);
  EXPECT_NE(det.races()[0].to_string().find("client-0"), std::string::npos);
  EXPECT_NE(det.races()[0].to_string().find("client-1"), std::string::npos);
}

// ------------------------------------------------------- Sync channels

// Drift guard for the shared channel table: sync_channels.hpp is
// consumed by this detector at runtime AND parsed textually by
// tools/dmr_verify; every SyncPoint::Kind must map to a distinct,
// non-placeholder channel name or the two views diverge silently.
TEST(McSyncChannels, EveryKindHasAUniqueChannelName) {
  std::vector<std::string> names;
  for (int i = 0; i < shm::kNumSyncPointKinds; ++i) {
    const char* name =
        shm::sync_channel_name(static_cast<shm::SyncPoint::Kind>(i));
    EXPECT_STRNE(name, "?") << "kind " << i << " missing from the table";
    names.emplace_back(name);
  }
  std::vector<std::string> sorted = names;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::unique(sorted.begin(), sorted.end()) == sorted.end())
      << joined(names);
}

TEST(McSyncChannels, RaceDetectorCountsEdgesPerChannel) {
  HbRaceDetector det;
  int dummy = 0;
  det.on_acquire({shm::SyncPoint::Kind::kQueueMutex, &dummy});
  det.on_release({shm::SyncPoint::Kind::kQueueMutex, &dummy});
  det.on_release({shm::SyncPoint::Kind::kPartition, &dummy, 0});
  auto stats = det.channel_stats();
  EXPECT_EQ(stats["queue_mutex"].acquires, 1);
  EXPECT_EQ(stats["queue_mutex"].releases, 1);
  EXPECT_EQ(stats["partition_live"].acquires, 0);
  EXPECT_EQ(stats["partition_live"].releases, 1);
  EXPECT_NE(
      det.report().find("sync channel queue_mutex: 1 acquire(s), 1 release(s)"),
      std::string::npos)
      << det.report();
}

// ---------------------------------------------------- Scheduler mechanics

TEST(McScheduler, SingleProducerScenarioExploresAndCompletes) {
  ScenarioOptions s;
  s.producers = 1;
  s.handoffs = 1;
  const McResult r = check_shm_protocol(s);
  EXPECT_TRUE(r.complete) << r.summary();
  EXPECT_TRUE(r.clean()) << r.cex->to_string();
  EXPECT_GE(r.executions, 1u);
}

TEST(McScheduler, SleepSetsPruneIndependentCommutations) {
  // Two producers, one handoff each: the partitioned allocs commute,
  // only the publish order and consumer interleavings branch. The
  // reduced exploration must stay far below the naive interleaving
  // count (13 visible ops would naively allow thousands of schedules).
  ScenarioOptions s;
  s.producers = 2;
  s.handoffs = 1;
  const McResult r = check_shm_protocol(s);
  EXPECT_TRUE(r.complete) << r.summary();
  EXPECT_TRUE(r.clean());
  EXPECT_LT(r.executions, 500u) << r.summary();
}

TEST(McScheduler, ReplayReproducesASchedule) {
  ScenarioOptions sopts;
  sopts.producers = 1;
  sopts.handoffs = 1;
  sopts.mutate_double_release = true;
  shm::TestHooks hooks;
  hooks.double_deallocate = true;
  shm::ScopedTestHooks guard(hooks);

  const ShmScenario scenario = ShmScenario::build(sopts);
  Scheduler sched(scenario, ModelOptions{});
  McResult r = sched.explore();
  ASSERT_TRUE(r.cex.has_value());

  std::vector<int> tids;
  for (const auto& step : r.cex->schedule) tids.push_back(step.tid);
  const Scheduler::Replay rep = sched.replay(tids);
  EXPECT_TRUE(rep.valid);
  EXPECT_TRUE(rep.violated);
  EXPECT_EQ(rep.schedule.size(), r.cex->schedule.size());
}

// ------------------------------------- Exhaustive honest-protocol checks

// The acceptance scenario: two producers, three handoffs each, against
// the partitioned allocator. The checker must exhaust the reduced
// state space with zero violations of the protocol FSM, the allocator
// invariants, FIFO delivery, payload integrity, and freedom from
// races and deadlock.
TEST(McModel, HonestTwoProducersThreeHandoffsPartitionedIsClean) {
  ScenarioOptions s;  // defaults: 2 producers x 3 handoffs, partitioned
  const McResult r = check_shm_protocol(s);
  EXPECT_TRUE(r.complete) << r.summary();
  ASSERT_TRUE(r.clean()) << r.cex->to_string();
  EXPECT_FALSE(r.budget_exhausted) << r.summary();
}

TEST(McModel, HonestFirstFitIsClean) {
  // First-fit shares one free list, so every alloc/release pair is
  // dependent — a coarser footprint and a bigger reduced space. Two
  // handoffs keep it comfortably inside the CI budget.
  ScenarioOptions s;
  s.producers = 2;
  s.handoffs = 2;
  s.policy = shm::AllocPolicy::kMutexFirstFit;
  const McResult r = check_shm_protocol(s);
  EXPECT_TRUE(r.complete) << r.summary();
  ASSERT_TRUE(r.clean()) << r.cex->to_string();
}

TEST(McModel, HonestProducerCloseDrainsFifo) {
  // The producer closes after its own pushes; messages already queued
  // must still drain in FIFO order before pop returns nullopt.
  ScenarioOptions s;
  s.producers = 1;
  s.handoffs = 2;
  s.close_by = ScenarioOptions::CloseBy::kProducerLast;
  const McResult r = check_shm_protocol(s);
  EXPECT_TRUE(r.complete) << r.summary();
  ASSERT_TRUE(r.clean()) << r.cex->to_string();
}

TEST(McModel, HonestWaitModelHasNoLostWakeup) {
  // With the condvar modeled explicitly, close's notify is load-bearing:
  // the honest protocol must still terminate in every interleaving.
  ScenarioOptions s;
  s.producers = 1;
  s.handoffs = 2;
  s.close_by = ScenarioOptions::CloseBy::kProducerLast;
  s.model_waiting = true;
  const McResult r = check_shm_protocol(s);
  EXPECT_TRUE(r.complete) << r.summary();
  ASSERT_TRUE(r.clean()) << r.cex->to_string();
}

TEST(McModel, HonestSleepHandshakeHasNoLostWakeup) {
  // EventQueue's sleep handshake step by step: the consumer announces,
  // re-checks and parks; each producer enqueues, then reads the
  // announcement in a separate step. Two producers race to wake the
  // consumer, and the consumer closes, so every wake-up comes from a
  // push. (Two handoffs each exceed the exploration budget.)
  ScenarioOptions s;
  s.producers = 2;
  s.handoffs = 1;
  s.model_waiting = true;
  const McResult r = check_shm_protocol(s);
  EXPECT_TRUE(r.complete) << r.summary();
  ASSERT_TRUE(r.clean()) << r.cex->to_string();
}

// ---------------------------------------------------- Seeded-bug catches

TEST(McMutation, DoubleReleaseCaughtByProtocolChecker) {
  ScenarioOptions s;
  s.producers = 2;
  s.handoffs = 1;
  s.mutate_double_release = true;
  const McResult r = check_shm_protocol(s);
  ASSERT_TRUE(r.cex.has_value()) << r.summary();
  EXPECT_FALSE(r.cex->schedule.empty());
  const std::string v = joined(r.cex->violations);
  // The FSM flags the second release of a non-live block; the allocator
  // integrity check independently reports the corrupted accounting.
  EXPECT_TRUE(v.find("double-release") != std::string::npos ||
              v.find("underflow") != std::string::npos)
      << r.cex->to_string();
}

TEST(McMutation, WriteAfterPublishCaughtByRaceDetector) {
  ScenarioOptions s;
  s.producers = 1;
  s.handoffs = 1;
  s.mutate_write_after_publish = true;
  const McResult r = check_shm_protocol(s);
  ASSERT_TRUE(r.cex.has_value()) << r.summary();
  ASSERT_FALSE(r.cex->races.empty()) << r.cex->to_string();
  // The unordered pair is the late client write vs the server read, in
  // whichever order this counterexample scheduled them.
  const std::string race = r.cex->races[0].to_string();
  EXPECT_NE(race.find("late-write"), std::string::npos) << race;
  EXPECT_NE(race.find("read"), std::string::npos) << race;
}

TEST(McMutation, LostWakeupOnCloseCaughtAsDeadlock) {
  ScenarioOptions s;
  s.producers = 1;
  s.handoffs = 1;
  s.close_by = ScenarioOptions::CloseBy::kProducerLast;
  s.model_waiting = true;  // lost wakeups only exist with real waits
  s.mutate_skip_close_notify = true;
  const McResult r = check_shm_protocol(s);
  ASSERT_TRUE(r.cex.has_value()) << r.summary();
  EXPECT_TRUE(r.cex->deadlock) << r.cex->to_string();
  const std::string v = joined(r.cex->violations);
  EXPECT_NE(v.find("lost wakeup"), std::string::npos) << v;
}

TEST(McMutation, ParkWithoutRecheckCaughtAsDeadlock) {
  // The consumer announces and parks without re-checking: a push whose
  // read of the announcement came just before it wakes nobody, and the
  // consumer, which would close the queue itself, sleeps forever.
  ScenarioOptions s;
  s.producers = 1;
  s.handoffs = 1;
  s.model_waiting = true;
  s.mutate_park_without_recheck = true;
  const McResult r = check_shm_protocol(s);
  ASSERT_TRUE(r.cex.has_value()) << r.summary();
  EXPECT_TRUE(r.cex->deadlock) << r.cex->to_string();
  const std::string v = joined(r.cex->violations);
  EXPECT_NE(v.find("asleep in 'park' (lost wakeup"), std::string::npos) << v;
}

TEST(McMutation, CounterexampleExportsChromeTrace) {
  ScenarioOptions s;
  s.producers = 1;
  s.handoffs = 1;
  s.mutate_double_release = true;
  const std::string path = testing::TempDir() + "mc_counterexample.json";
  const McResult r = check_shm_protocol(s, ModelOptions{}, path);
  ASSERT_TRUE(r.cex.has_value());
  ASSERT_EQ(r.cex->trace_path, path) << "trace export failed";
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  EXPECT_NE(json.find("traceEvents"), std::string::npos);
  EXPECT_NE(json.find("release"), std::string::npos);  // schedule ops
}

// --------------------------------------------- Fixed drop-after-close path

// The [[nodiscard]] audit's poster child: pushing to a closed queue
// drops the message, and the pusher still owns the block. Releasing it
// (as core::Client::write_sized now does) must leave no leak.
TEST(McDropPath, DroppedPublishReleasesItsBlock) {
  shm::SharedBuffer buf(256, shm::AllocPolicy::kPartitioned, 1);
  shm::EventQueue q;
  auto r = buf.allocate(64, 0);
  ASSERT_TRUE(r.is_ok());
  q.close();
  shm::Message m;
  m.type = shm::MessageType::kWriteNotification;
  m.client_id = 0;
  m.block = r.value();
  ASSERT_FALSE(q.push(m));  // dropped: queue already closed
  buf.deallocate(r.value());
  EXPECT_EQ(buf.used(), 0u);
  EXPECT_TRUE(buf.check_integrity().is_ok());
}

}  // namespace
}  // namespace dmr::mc
